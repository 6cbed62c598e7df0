// fastiov-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	fastiov-bench -list
//	fastiov-bench -experiment fig11
//	fastiov-bench -experiment all -n 100
//	fastiov-bench -experiment fig12 -csv
//	fastiov-bench -experiment all -workers 8 -seeds 5
//	fastiov-bench -experiment all -verify-determinism
//	fastiov-bench -experiment tab1 -faults "vfio-reset:p=0.1;crash@dma:p=0.2"
//	fastiov-bench -experiment recovery
//	fastiov-bench -contention -n 100
//	fastiov-bench -fleet -hosts 100 -n 20
//	fastiov-bench -fleet -policy vf-aware
//	fastiov-bench -serve -rate 64 -policy slo-aware
//	fastiov-bench -serve -tenants "api:rate=40;batch:rate=20,prio=low"
//	fastiov-bench -trace out.json -n 50
//	fastiov-bench -slowatch
//	fastiov-bench -serve -journeys -verify-determinism
//	fastiov-bench -journey-trace j.json -journey-log j.jsonl -alerts alerts.txt \
//	  -faults "host-crash@600ms:host=0;host-recover=300ms"
//
// With -n <= 0 every experiment runs at its paper-default parameters
// (concurrency 200 for the headline results). -csv emits the table as CSV
// instead of aligned text. -workers fans independent simulation runs across
// a worker pool (0 = GOMAXPROCS); -seeds K sweeps each scenario over seeds
// 1..K and reports scalar metrics as mean ±95% CI; -verify-determinism runs
// every simulation twice and every experiment both parallel and serial,
// failing on any byte-level divergence; -faults injects a deterministic
// fault plan (site:key=value clauses, including crash@<stage> startup
// aborts; see EXPERIMENTS.md) into every experiment that does not sweep
// its own plans (chaos and recovery pin theirs).
//
// Every harness run is leak-audited: after measurement the surviving
// sandboxes are stopped and the host's conservation counters (free VFs,
// pages, IOMMU mappings, devset opens, vhost registrations) are diffed
// against the boot baseline. A dirty audit fails the experiment with the
// full counter diff.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"fastiov"
)

// firstSeed is the seed the standalone export modes (-trace, -metrics,
// -journey-*) run at: the first seed of every -seeds sweep.
const firstSeed = 1

// sanitize maps an experiment id to a safe file stem.
func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r == '.':
			return '_'
		default:
			return '_'
		}
	}, id)
}

// run executes the CLI against argv (without the program name), writing
// reports to stdout and diagnostics to stderr, and returns the exit code.
// A failing experiment no longer aborts the batch: every requested id runs,
// errors are reported per id, and the exit code is 1 if any failed.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fastiov-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment id (see -list), comma list, or 'all'")
		n          = fs.Int("n", 0, "concurrency override (<=0 = paper defaults)")
		csv        = fs.Bool("csv", false, "emit tables as CSV")
		outDir     = fs.String("out", "", "also write each experiment's table as CSV into this directory")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		seeds      = fs.Int("seeds", 1, fmt.Sprintf("seeds per scenario (sweep over seeds 1..K, K at most %d; scalar metrics become mean ±95%% CI)", fastiov.MaxSeeds))
		workers    = fs.Int("workers", 1, "concurrent simulation runs (0 = GOMAXPROCS)")
		verify     = fs.Bool("verify-determinism", false, "run each simulation twice and each experiment parallel+serial, failing on divergence")
		faults     = fs.String("faults", "", "fault plan injected into every experiment, e.g. 'vfio-reset:p=0.1;dma-map:every=5'")
		tracePath  = fs.String("trace", "", "write a Chrome trace-event JSON of one traced startup run to this file and exit (load in ui.perfetto.dev)")
		baseline   = fs.String("baseline", "", "baseline of the export modes: -trace and -metrics/-metrics-csv/-dashboard (empty = vanilla), -journey-trace/-journey-log/-alerts (empty = fastiov)")
		contention = fs.Bool("contention", false, "shorthand for -experiment contention")
		fleetRun   = fs.Bool("fleet", false, "shorthand for -experiment fleet")
		serveRun   = fs.Bool("serve", false, "shorthand for -experiment serving")
		availRun   = fs.Bool("availability", false, "shorthand for -experiment availability")
		mtbf       = fs.Duration("mtbf", 0, "availability experiment host MTBF, e.g. 2s (<=0 = the default MTBF/MTTR ladder)")
		hosts      = fs.Int("hosts", 0, fmt.Sprintf("fleet/serving experiment host count (<=0 = paper-scale default, at most %d)", fastiov.MaxHosts))
		policy     = fs.String("policy", "", "restrict the fleet experiment to one placement policy (random|rr|least-loaded|vf-aware), or the serving, availability and slowatch experiments and journey exports to one admission policy (fifo|token-bucket|slo-aware); empty sweeps all")
		rate       = fs.Float64("rate", 0, "serving experiment offered load in req/s (<=0 = the default overload ladder)")
		tenants    = fs.String("tenants", "", "serving experiment workload spec, e.g. 'api:rate=40;batch:rate=20,prio=low' (empty = default tenant mix)")
		jsonPath   = fs.String("json", "", "also write machine-readable results (fastiov-bench/v1 schema, see BENCH_SCHEMA.md) to this file")
		metricsOut = fs.String("metrics", "", "write an OpenMetrics snapshot of one metered startup run to this file and exit")
		metricsCSV = fs.String("metrics-csv", "", "write the sampled per-metric time series of one metered startup run as CSV to this file and exit")
		dashboard  = fs.Bool("dashboard", false, "print an ASCII host dashboard of one metered startup run and exit")
		journeys   = fs.Bool("journeys", false, "record per-request journey traces on every serving run (pure observation; reports render identically)")
		jtracePath = fs.String("journey-trace", "", "write a Chrome trace-event JSON of one journey-traced serving run to this file and exit (load in ui.perfetto.dev)")
		jlogPath   = fs.String("journey-log", "", "write the canonical JSONL span log of one journey-traced serving run to this file and exit")
		alertsPath = fs.String("alerts", "", "write the alert engine's timeline of one journey-traced serving run to this file and exit")
		alertRules = fs.String("alert-rules", "", "alert rule spec of the journey export mode (-journey-trace/-journey-log/-alerts), whose -alerts timeline it drives (empty = the default slo-burn + crash-seen rules)")
		slowatch   = fs.Bool("slowatch", false, "shorthand for -experiment slowatch")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *seeds > fastiov.MaxSeeds {
		fmt.Fprintf(stderr, "fastiov-bench: -seeds %d exceeds the limit of %d\n", *seeds, fastiov.MaxSeeds)
		return 2
	}
	if *hosts > fastiov.MaxHosts {
		fmt.Fprintf(stderr, "fastiov-bench: -hosts %d exceeds the limit of %d\n", *hosts, fastiov.MaxHosts)
		return 2
	}
	// -policy names a placement policy (fleet experiment) or an admission
	// policy (serving, availability, slowatch, journey exports). The two
	// name sets are disjoint, so the value alone picks the layer.
	var fleetPolicy, servePolicy string
	switch {
	case *policy == "":
	case slices.Contains(fastiov.FleetPolicies(), *policy):
		fleetPolicy = *policy
	case slices.Contains(fastiov.ServePolicies(), *policy):
		servePolicy = *policy
	default:
		fmt.Fprintf(stderr, "fastiov-bench: -policy: unknown policy %q (placement: %s; admission: %s)\n", *policy,
			strings.Join(fastiov.FleetPolicies(), "|"), strings.Join(fastiov.ServePolicies(), "|"))
		return 2
	}
	if err := fastiov.ValidateFaultSpec(*faults); err != nil {
		fmt.Fprintln(stderr, "fastiov-bench: -faults:", err)
		return 2
	}
	if err := fastiov.ValidateWorkloadSpec(*tenants); err != nil {
		fmt.Fprintln(stderr, "fastiov-bench: -tenants:", err)
		return 2
	}
	if err := fastiov.ValidateServeLoad(*tenants, *rate); err != nil {
		fmt.Fprintln(stderr, "fastiov-bench: -rate/-tenants:", err)
		return 2
	}
	if *tracePath != "" {
		// Trace export is a standalone mode, like -list: one traced run of
		// the startup scenario at the first seed, written as Chrome JSON.
		base := cmp.Or(*baseline, "vanilla")
		tn := *n
		if tn <= 0 {
			tn = 50
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, "fastiov-bench: -trace:", err)
			return 1
		}
		err = fastiov.WriteStartupTrace(f, base, tn, firstSeed)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "fastiov-bench: -trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%s, %d containers); load it in ui.perfetto.dev or chrome://tracing\n",
			*tracePath, base, tn)
		return 0
	}
	if *metricsOut != "" || *metricsCSV != "" || *dashboard {
		// Metrics export is a standalone mode, like -trace: one metered run
		// of the startup scenario at the first seed, exported as an
		// OpenMetrics snapshot, a CSV time series, a dashboard, or any
		// combination. The bytes are a pure function of (baseline, n, seed).
		base := cmp.Or(*baseline, "vanilla")
		mn := *n
		if mn <= 0 {
			mn = 50
		}
		reg, err := fastiov.StartupMetrics(base, mn, firstSeed)
		if err != nil {
			fmt.Fprintln(stderr, "fastiov-bench: -metrics:", err)
			return 1
		}
		writeExport := func(path, format string, export func(io.Writer) error) bool {
			f, err := os.Create(path)
			if err == nil {
				err = export(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(stderr, "fastiov-bench: -metrics:", err)
				return false
			}
			fmt.Fprintf(stdout, "wrote %s (%s, %s, %d containers, %d instruments, %d samples @ %v)\n",
				path, format, base, mn, len(reg.IDs()), reg.Samples(), reg.Cadence())
			return true
		}
		if *metricsOut != "" && !writeExport(*metricsOut, "OpenMetrics", reg.WriteOpenMetrics) {
			return 1
		}
		if *metricsCSV != "" && !writeExport(*metricsCSV, "CSV time series", reg.WriteCSV) {
			return 1
		}
		if *dashboard {
			fmt.Fprintf(stdout, "%s, concurrency %d:\n%s", base, mn, reg.Dashboard(100))
		}
		return 0
	}
	if *jtracePath != "" || *jlogPath != "" || *alertsPath != "" {
		// Journey export is a standalone mode, like -trace: one
		// journey-traced serving run at the first seed, exported as a
		// Perfetto track group, a JSONL span log, an alert timeline, or any
		// combination — all cut from the same run.
		rules := *alertRules
		if rules == "" && *alertsPath != "" {
			rules = fastiov.DefaultAlertRules
		}
		if err := fastiov.ValidateAlertRules(rules); err != nil {
			fmt.Fprintln(stderr, "fastiov-bench: -alert-rules:", err)
			return 2
		}
		cfg := fastiov.JourneyExportConfig{
			Baseline:   cmp.Or(*baseline, "fastiov"),
			Policy:     servePolicy,
			Hosts:      *hosts,
			Rate:       *rate,
			FaultSpec:  *faults,
			AlertRules: rules,
			Seed:       firstSeed,
		}
		files := make(map[string]*os.File, 3)
		writers := make([]io.Writer, 3)
		for i, path := range []string{*jtracePath, *jlogPath, *alertsPath} {
			if path == "" {
				continue
			}
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(stderr, "fastiov-bench: -journey:", err)
				return 1
			}
			files[path] = f
			writers[i] = f
		}
		err := fastiov.WriteJourneyExports(cfg, writers[0], writers[1], writers[2])
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "fastiov-bench: -journey:", err)
			return 1
		}
		for _, pair := range []struct{ path, what string }{
			{*jtracePath, "Perfetto journey track group; load in ui.perfetto.dev"},
			{*jlogPath, "canonical JSONL span log"},
			{*alertsPath, "alert timeline"},
		} {
			if pair.path != "" {
				fmt.Fprintf(stdout, "wrote %s (%s)\n", pair.path, pair.what)
			}
		}
		return 0
	}
	if *contention {
		*experiment = "contention"
	}
	if *fleetRun {
		*experiment = "fleet"
	}
	if *serveRun {
		*experiment = "serving"
	}
	if *availRun {
		*experiment = "availability"
	}
	if *slowatch {
		*experiment = "slowatch"
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "fastiov-bench:", err)
			return 1
		}
	}

	suite := fastiov.NewSuite(fastiov.RunConfig{
		Workers:           *workers,
		Seeds:             fastiov.SeedList(*seeds),
		VerifyDeterminism: *verify,
		FaultSpec:         *faults,
		Journeys:          *journeys,
		Fleet:             fastiov.FleetConfig{Hosts: *hosts, Policy: fleetPolicy},
		Serve:             fastiov.ServeConfig{Hosts: *hosts, Policy: servePolicy, Tenants: *tenants, Rate: *rate},
		Availability:      fastiov.AvailabilityConfig{MTBF: *mtbf},
	})
	entries := suite.Experiments()
	if *list {
		for _, e := range entries {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var ids []string
	if *experiment == "all" {
		for _, e := range entries {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	var bench *benchFile
	if *jsonPath != "" {
		bench = newBenchFile(ids, *n, fastiov.SeedList(*seeds), *workers, *faults, *verify)
	}

	failed := 0
	total := time.Now()
	for _, id := range ids {
		start := time.Now()
		if *verify {
			if err := suite.VerifyDeterminism(id, *n); err != nil {
				fmt.Fprintf(stderr, "fastiov-bench: %s: determinism: %v\n", id, err)
				if bench != nil {
					bench.add(id, nil, err, time.Since(start))
				}
				failed++
				continue
			}
		}
		rep, err := suite.Run(id, *n)
		if bench != nil {
			bench.add(id, rep, err, time.Since(start))
		}
		if err != nil {
			fmt.Fprintf(stderr, "fastiov-bench: %s: %v\n", id, err)
			failed++
			continue
		}
		if *csv && rep.Table != nil {
			fmt.Fprintf(stdout, "# %s: %s\n%s", rep.ID, rep.Title, rep.Table.CSV())
		} else {
			fmt.Fprint(stdout, rep.String())
		}
		if *outDir != "" && rep.Table != nil {
			path := filepath.Join(*outDir, sanitize(rep.ID)+".csv")
			if err := os.WriteFile(path, []byte(rep.Table.CSV()), 0o644); err != nil {
				fmt.Fprintln(stderr, "fastiov-bench:", err)
				failed++
				continue
			}
		}
		fmt.Fprintf(stdout, "(%s completed in %v wall time)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if len(ids) > 1 {
		st := suite.CacheStats()
		fmt.Fprintf(stdout, "(suite: %d experiments in %v; %d sim runs, %d cache hits",
			len(ids), time.Since(total).Round(time.Millisecond), st.Runs, st.Hits)
		if st.Verified > 0 {
			fmt.Fprintf(stdout, ", %d verified", st.Verified)
		}
		fmt.Fprint(stdout, ")\n")
	}
	if bench != nil {
		st := suite.CacheStats()
		bench.Cache = benchCache{Runs: st.Runs, Hits: st.Hits, Verified: st.Verified}
		if err := bench.writeTo(*jsonPath); err != nil {
			fmt.Fprintln(stderr, "fastiov-bench: -json:", err)
			failed++
		} else {
			fmt.Fprintf(stdout, "wrote %s (%s, %d experiments)\n", *jsonPath, benchSchema, len(bench.Results))
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "fastiov-bench: %d of %d experiments failed\n", failed, len(ids))
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
