package experiments

import "fmt"

// Entry is one registered experiment: a paper table/figure or an ablation,
// runnable on any executor.
type Entry struct {
	ID    string
	Title string
	// Run executes the experiment on x at its paper-default parameters when
	// n <= 0, or at concurrency n where applicable.
	Run func(x *Exec, n int) (*Report, error)
}

// defConc maps the CLI concurrency override to a sweep: paper defaults when
// unset, otherwise a short sweep ending at the override.
func defConc(n int) []int {
	if n > 0 {
		return []int{10, 50, n}
	}
	return nil
}

// pick chooses the override if set, else the default.
func pick(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// Registry returns the full experiment suite, one entry per paper
// table/figure plus the ablations, in presentation order.
func Registry() []Entry {
	return []Entry{
		{"fig1", "SR-IOV overhead vs concurrency", func(x *Exec, n int) (*Report, error) {
			return x.Fig1(defConc(n))
		}},
		{"fig5", "Startup timeline breakdown", func(x *Exec, n int) (*Report, error) {
			return x.Fig5(pick(n, DefaultConcurrency))
		}},
		{"tab1", "Stage time proportions", func(x *Exec, n int) (*Report, error) {
			return x.Table1(pick(n, DefaultConcurrency))
		}},
		{"fig11", "Average startup time, all baselines", func(x *Exec, n int) (*Report, error) {
			return x.Fig11(pick(n, DefaultConcurrency))
		}},
		{"fig12", "Startup time distribution", func(x *Exec, n int) (*Report, error) {
			return x.Fig12(pick(n, DefaultConcurrency))
		}},
		{"fig13a", "Impact of concurrency", func(x *Exec, n int) (*Report, error) {
			return x.Fig13a(defConc(n))
		}},
		{"fig13b", "Impact of memory allocation", func(x *Exec, n int) (*Report, error) {
			return x.Fig13b(nil, pick(n, 50))
		}},
		{"fig13c", "Fully loaded server", func(x *Exec, n int) (*Report, error) {
			return x.Fig13c(defConc(n))
		}},
		{"fig14", "Comparison with software CNI", func(x *Exec, n int) (*Report, error) {
			return x.Fig14(pick(n, DefaultConcurrency))
		}},
		{"sec6.5", "Memory access performance", func(x *Exec, n int) (*Report, error) {
			return x.MemPerf()
		}},
		{"fig15", "Serverless application performance", func(x *Exec, n int) (*Report, error) {
			return x.Fig15(pick(n, DefaultConcurrency))
		}},
		{"fig16a-d", "Serverless apps vs concurrency", func(x *Exec, n int) (*Report, error) {
			return x.Fig16Concurrency(defConc(n))
		}},
		{"fig16e-h", "Serverless apps vs memory", func(x *Exec, n int) (*Report, error) {
			return x.Fig16Memory(nil, pick(n, 50))
		}},
		{"fig16i-l", "Serverless apps, fully loaded", func(x *Exec, n int) (*Report, error) {
			return x.Fig16FullyLoaded(defConc(n))
		}},
		// Ablations beyond the paper's figures (DESIGN.md §4) and the §7
		// future-work investigation.
		{"abl-busscan", "Devset bus-scan cost vs VF population", func(x *Exec, n int) (*Report, error) {
			return x.AblationBusScan(pick(n, 50), nil)
		}},
		{"abl-pagesize", "DMA retrieval vs page size (P2, Fig. 6)", func(x *Exec, n int) (*Report, error) {
			return x.AblationPageSize(pick(n, 10))
		}},
		{"abl-scrubber", "fastiovd background scrubber", func(x *Exec, n int) (*Report, error) {
			return x.AblationScrubber(pick(n, 50))
		}},
		{"abl-slotreset", "Devset contention vs reset capability", func(x *Exec, n int) (*Report, error) {
			return x.AblationSlotReset(pick(n, 100))
		}},
		{"future-vdpa", "vDPA control plane (§7)", func(x *Exec, n int) (*Report, error) {
			return x.FutureVDPA(pick(n, DefaultConcurrency))
		}},
		{"bg-dataplane", "Data-plane receive path (§1 premise)", func(x *Exec, n int) (*Report, error) {
			return x.DataPlane(0, nil)
		}},
		{"ext-arrivals", "Arrival-pattern sensitivity", func(x *Exec, n int) (*Report, error) {
			return x.ExtArrivals(pick(n, DefaultConcurrency))
		}},
		{"chaos", "Startup resilience under injected faults", func(x *Exec, n int) (*Report, error) {
			return x.Chaos(pick(n, 50))
		}},
		{"contention", "Lock contention and critical paths", func(x *Exec, n int) (*Report, error) {
			return x.Contention(pick(n, DefaultConcurrency))
		}},
		{"recovery", "Transactional startup: crash churn and leak audit", func(x *Exec, n int) (*Report, error) {
			return x.Recovery(pick(n, 30))
		}},
		{"saturation", "Host saturation time series: devset queue and membw", func(x *Exec, n int) (*Report, error) {
			return x.Saturation(pick(n, DefaultConcurrency))
		}},
		{"fleet", "Fleet placement: policy × baseline on a shared kernel", (*Exec).Fleet},
		{"serving", "Admission-controlled serving under sustained overload", (*Exec).Serving},
		{"availability", "Fleet availability under host crash/recovery", (*Exec).Availability},
		{"slowatch", "SLO watch: alert detection latency per incident", (*Exec).Slowatch},
	}
}

// Lookup returns the registry entry with the given id.
func Lookup(id string) (Entry, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
