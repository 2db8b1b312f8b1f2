// Command bench is WiLocator's fleet benchmark: four named workloads driven
// against the real server.NewHandler over loopback TCP, reporting ten
// end-to-end metrics and, on a traced run, the per-layer metrics behind
// them. BENCHMARK.json at the repository root is its contract; README.md in
// this directory is its manual.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh -seed <n>                  # all workloads, both kinds of run
//	bash bench/run.sh -repeat 10                 # run-to-run spread per metric
//	bash bench/run.sh -calibrate a.json [b.json] # bounds from same-code sets of runs
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Where the benchmark's own files are, from the root of the checkout every
// command runs in.
const (
	contractPath = "BENCHMARK.json"
	baselinePath = "bench/baseline.json"
	outDir       = "bench/out" // trace and repeat files
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames))
		seed      = flag.Uint64("seed", 1, "corpus seed")
		seconds   = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		repeat    = flag.Int("repeat", 0, "run every workload this many times on consecutive seeds and report the spread")
		calibrate = flag.Bool("calibrate", false, "from one or two -repeat result files of the same code, given as arguments: write the bounds into BENCHMARK.json and the spreads and unresolved cells into "+baselinePath)
		compare   = flag.Bool("compare", false, "compare two -repeat result files given as arguments")
	)
	flag.Parse()

	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two result files")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1))
		case *calibrate:
			if n := flag.NArg(); n < 1 || n > 2 {
				return fmt.Errorf("-calibrate takes one or two result files")
			}
			return calibrateFrom(flag.Args())
		case *workload != "":
			if *seconds <= 0 {
				return fmt.Errorf("--seconds must be positive")
			}
			return runOne(*workload, *seed, *seconds, *trace != 0)
		}
		bm, err := readContract(contractPath)
		if err != nil {
			return err
		}
		if *seconds <= 0 {
			*seconds = float64(bm.RunSeconds)
		}
		if *repeat > 0 {
			return repeatRuns(bm, *repeat, *seed, *seconds)
		}
		return runAll(bm, *seed, *seconds)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is one run of one workload in this process: the shape the
// benchmark contract drives. It prints every metric by name with its unit
// and sample count, then the result as the last line, and fails on a
// correctness fault or a broken validity rule — after printing.
func runOne(workload string, seed uint64, seconds float64, trace bool) error {
	res, err := runWorkload(runConfig{
		workload: workload, seed: seed, seconds: seconds, trace: trace, sc: fullScale,
		workDir: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		outDir:  outDir,
	})
	if err != nil {
		return err
	}
	printResult(workload, seed, trace, res)
	line, err := res.line()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if n := len(res.faults) + len(res.invalid); n > 0 {
		return fmt.Errorf("%s: %d failed checks", workload, n)
	}
	return nil
}

func printResult(workload string, seed uint64, trace bool, res *runResult) {
	kind := "end-to-end"
	if trace {
		kind = "per-layer (traced)"
	}
	fmt.Printf("# %s seed=%d %s: %d operations, %d failed\n", workload, seed, kind, res.attempted, res.failed)
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Printf("%-40s %16.6g %-10s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	if res.tracePath != "" {
		fmt.Printf("# spans written to %s\n", res.tracePath)
	}
	for _, f := range res.faults {
		fmt.Printf("FAULT   %s\n", f)
	}
	for _, f := range res.invalid {
		fmt.Printf("INVALID %s\n", f)
	}
}
