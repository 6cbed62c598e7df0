// Command perfbench is the simulator's benchmark. It runs one named
// workload against the simulator's public Go APIs in a closed loop (one
// goroutine, one iteration after another), checks every iteration's
// simulated output against a recorded checksum, and prints host-side cost:
// set-up time, run time, allocations and retained heap. A traced run
// (--trace 1) instead reports per-layer numbers: call spans around every
// layer the workload enters, kernel counters, and a CPU-profile package
// split.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload host-c200 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// simSeeds is how many simulation seeds have recorded checksums; --seed n
// selects simulation seed 1 + (n-1) mod simSeeds, so seeds 1 to 16 run as
// themselves.
const simSeeds = 16

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed; selects simulation seed 1 + (seed-1) mod 16")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	record := flag.Bool("record", false, "print the checksum of every workload at every simulation seed as JSON, then exit")
	flag.Parse()

	// Closed loop on one goroutine: never more Ps than CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	if *record {
		return recordChecksums()
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	want, err := loadChecksums()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	simSeed := 1 + (*seed-1)%simSeeds
	e := &env{simSeed: simSeed, want: want[w.name][fmt.Sprint(simSeed)]}
	fmt.Printf("perfbench workload=%s seed=%d sim-seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		w.name, *seed, e.simSeed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var out result
	if *trace == 1 {
		out, err = tracedRun(w, e, *seconds)
	} else {
		out, err = plainRun(w, e, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
