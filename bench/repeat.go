package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// contract mirrors BENCHMARK.json, field for field and in its order, so
// -calibrate can rewrite the bounds and leave everything else as it was.
type contract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []boundedDef  `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bm, nil
}

// child re-executes this binary for one run, so heap and resident set do
// not leak from one workload into the next. It passes the child's report
// through and returns the parsed result line.
func child(workload string, seed uint64, seconds float64, trace int, echo bool) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to end
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	if echo || runErr != nil {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, runErr
}

// runAll is the one command: every workload, an untraced run for the
// end-to-end metrics and a traced run for the per-layer ones, each in a
// fresh child process.
func runAll(bm *contract, seed uint64, seconds float64) error {
	failed := 0
	for _, wl := range bm.Workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(wl.Name, seed, seconds, trace, true)
			if err != nil || res == nil || !res.Correct {
				fmt.Printf("FAILED  %s trace=%d: %v\n", wl.Name, trace, err)
				failed++
			}
		}
		fmt.Printf("trace: %s\n\n", filepath.Join(outDir, "trace-"+wl.Name+".json"))
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

// repeatFile is what -repeat writes and -calibrate and -compare read.
type repeatFile struct {
	Seconds float64  `json:"seconds"`
	Seeds   []uint64 `json:"seeds"`
	// Runs is workload → end-to-end metric → one value per seed.
	Runs map[string]map[string][]float64 `json:"runs"`
}

// baselineFile records, beside BENCHMARK.json's bounds, what they were
// derived from: per cell the median and spread of every same-code set of
// runs, and why a cell, if so, cannot be judged at its metric's bound.
// -repeat and -compare read it and answer "unresolved" on those cells.
type baselineFile struct {
	Seconds    float64                    `json:"seconds"`
	Seeds      [][]uint64                 `json:"seeds"` // one list per set
	Cells      map[string]map[string]cell `json:"cells"` // metric → workload
	Unresolved []string                   `json:"unresolved"`
}

type cell struct {
	Medians []float64 `json:"medians"` // one per set
	Spreads []float64 `json:"spreads"` // interquartile range ÷ median, one per set
	// Pooled is the spread of all the sets' runs taken together: a machine
	// that drifts between two sets shows here and not in either set.
	Pooled     float64 `json:"pooled_spread"`
	Unresolved string  `json:"unresolved,omitempty"`
}

// widest is the largest spread the cell showed, within a set or across them.
func (c cell) widest() float64 { return math.Max(slices.Max(c.Spreads), c.Pooled) }

func repeatRuns(bm *contract, n int, seed uint64, seconds float64) error {
	rf := repeatFile{Seconds: seconds, Runs: map[string]map[string][]float64{}}
	failed := 0
	for i := 0; i < n; i++ {
		rf.Seeds = append(rf.Seeds, seed+uint64(i))
	}
	for _, wl := range bm.Workloads {
		rf.Runs[wl.Name] = map[string][]float64{}
		for _, s := range rf.Seeds {
			res, err := child(wl.Name, s, seconds, 0, false)
			if err != nil || !res.Correct {
				// The run's own report is already printed; its figures
				// are left out and the command fails at the end.
				fmt.Printf("FAILED  %s seed %d: %v\n", wl.Name, s, err)
				failed++
				continue
			}
			for name, m := range res.Metrics {
				rf.Runs[wl.Name][name] = append(rf.Runs[wl.Name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", wl.Name, s)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "repeat-"+time.Now().UTC().Format("20060102T150405")+".json")
	if err := writeJSON(path, rf); err != nil {
		return err
	}
	fmt.Printf("# %d runs per workload, %g s each; results in %s\n", n, seconds, path)
	report(bm, readBaseline(), &rf, nil)
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

// The rules a bound is derived by. A bound starts at tenPercent (tailStart
// for a tail percentile), is at least three times the widest spread any
// workload showed, in one set or over all the runs pooled, and stops at
// boundCap, the most the benchmark contract allows.
const (
	tenPercent = 0.10
	tailStart  = 0.15
	boundCap   = 0.25
)

// worsening is how much worse b reads than a, as a share of a; negative when
// it reads better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// calibrateFrom derives every end-to-end metric's bound from one or two sets
// of runs of the same code and writes the bounds into BENCHMARK.json. Beside
// them, in baseline.json, go every cell's medians and spreads and the cells
// no verdict can be given on at that bound: one that cannot hold ten percent
// run to run, one whose bound the cap cut below three times its spread, and
// one on which the two sets disagree by more than the bound.
func calibrateFrom(paths []string) error {
	bm, err := readContract(contractPath)
	if err != nil {
		return err
	}
	sets := make([]repeatFile, len(paths))
	for i, path := range paths {
		if err := readJSON(path, &sets[i]); err != nil {
			return err
		}
		if sets[i].Seconds != sets[0].Seconds {
			return fmt.Errorf("run lengths differ: %g s in %s, %g s in %s", sets[0].Seconds, paths[0], sets[i].Seconds, path)
		}
	}
	bf := &baselineFile{Seconds: sets[0].Seconds, Cells: map[string]map[string]cell{}}
	for _, set := range sets {
		bf.Seeds = append(bf.Seeds, set.Seeds)
	}
	for i := range bm.EndToEnd {
		m := &bm.EndToEnd[i]
		bound := tenPercent
		if strings.Contains(m.Name, "_p9") {
			bound = tailStart
		}
		cells := map[string]cell{}
		for _, wl := range bm.Workloads {
			var c cell
			var pooled []float64
			for k, set := range sets {
				vs := set.Runs[wl.Name][m.Name]
				if len(vs) < 2 {
					return fmt.Errorf("%s holds %d runs of %s @ %s", paths[k], len(vs), m.Name, wl.Name)
				}
				_, q2, _ := quartiles(vs)
				c.Medians, c.Spreads = append(c.Medians, q2), append(c.Spreads, spread(vs))
				pooled = append(pooled, vs...)
			}
			c.Pooled = spread(pooled)
			bound = math.Max(bound, 3*c.widest())
			cells[wl.Name] = c
		}
		m.Bound = math.Min(boundCap, math.Ceil(bound*100)/100)
		for _, wl := range bm.Workloads {
			c := cells[wl.Name]
			var why []string
			widest := c.widest()
			switch {
			case slices.Max(c.Spreads) > tenPercent:
				why = append(why, fmt.Sprintf("spread %.3f does not hold 10 %%", slices.Max(c.Spreads)))
			case widest > tenPercent:
				why = append(why, fmt.Sprintf("the sets drift apart: spread %.3f over their runs pooled does not hold 10 %%", widest))
			}
			if 3*widest > m.Bound {
				why = append(why, fmt.Sprintf("bound %.2f is below 3 x spread", m.Bound))
			}
			if len(c.Medians) == 2 {
				if w := worsening(c.Medians[0], c.Medians[1], m.Better); math.Abs(w) > m.Bound {
					why = append(why, fmt.Sprintf("the second set of the same code reads %+.0f %%", 100*(c.Medians[1]-c.Medians[0])/c.Medians[0]))
				}
			}
			if len(why) > 0 {
				c.Unresolved = strings.Join(why, "; ")
				bf.Unresolved = append(bf.Unresolved, fmt.Sprintf("%s @ %s: %s", m.Name, wl.Name, c.Unresolved))
			}
			cells[wl.Name] = c
		}
		bf.Cells[m.Name] = cells
	}
	if err := writeJSON(contractPath, bm); err != nil {
		return err
	}
	if err := writeJSON(baselinePath, bf); err != nil {
		return err
	}
	if len(sets) == 2 {
		report(bm, bf, &sets[0], &sets[1])
	} else {
		report(bm, bf, &sets[0], nil)
	}
	return nil
}

// readBaseline returns nil when there is no baseline yet.
func readBaseline() *baselineFile {
	var bf baselineFile
	if err := readJSON(baselinePath, &bf); err != nil {
		return nil
	}
	return &bf
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func compareFiles(aPath, bPath string) error {
	bm, err := readContract(contractPath)
	if err != nil {
		return err
	}
	var a, b repeatFile
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("run lengths differ: %g s and %g s", a.Seconds, b.Seconds)
	}
	if worse := report(bm, readBaseline(), &a, &b); worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}

// report prints, per workload × end-to-end metric, the median and IQR of a
// (and of b when given), the bound, and a verdict; it returns how many
// cells are worse than their bound. A cell is unresolved, not ok or worse,
// when the baseline lists it so or a set's own spread is wider than the
// bound — unless every run of b reads better than every run of a.
func report(bm *contract, base *baselineFile, a, b *repeatFile) (worse int) {
	fmt.Printf("%-13s %-18s %12s %10s", "workload", "metric", "median", "iqr")
	if b != nil {
		fmt.Printf(" %12s %10s", "median(b)", "iqr(b)")
	}
	fmt.Printf(" %6s  %s\n", "bound", "verdict")
	for _, wl := range bm.Workloads {
		for _, m := range bm.EndToEnd {
			va := a.Runs[wl.Name][m.Name]
			q1, q2, q3 := quartiles(va)
			fmt.Printf("%-13s %-18s %12.5g %10.3g", wl.Name, m.Name, q2, q3-q1)
			why := ""
			if base != nil {
				why = base.Cells[m.Name][wl.Name].Unresolved
			}
			if why == "" && spread(va) > m.Bound {
				why = fmt.Sprintf("spread %.3f is wider than the bound", spread(va))
			}
			verdict := "ok"
			if b != nil {
				vb := b.Runs[wl.Name][m.Name]
				p1, p2, p3 := quartiles(vb)
				fmt.Printf(" %12.5g %10.3g", p2, p3-p1)
				if why == "" && spread(vb) > m.Bound {
					why = fmt.Sprintf("spread %.3f is wider than the bound", spread(vb))
				}
				switch {
				case why != "" && !allBetter(vb, va, m.Better):
					verdict = "unresolved: " + why
				case worsening(q2, p2, m.Better) > m.Bound:
					verdict = "worse"
					worse++
				}
			} else if why != "" {
				verdict = "unresolved: " + why
			}
			fmt.Printf(" %6.2f  %s\n", m.Bound, verdict)
		}
	}
	return worse
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(b, a []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := a[0], a[0]
	for _, v := range a {
		minA, maxA = math.Min(minA, v), math.Max(maxA, v)
	}
	for _, v := range b {
		if better == "higher" && v <= maxA || better != "higher" && v >= minA {
			return false
		}
	}
	return true
}
