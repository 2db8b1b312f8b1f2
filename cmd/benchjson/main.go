// Command benchjson converts `go test -bench` text output (read from stdin)
// into a machine-readable JSON document, so benchmark numbers can be
// committed, diffed and regression-checked without scraping logs.
//
// Usage:
//
//	go test -run='^$' -bench=SVD -benchmem . | go run ./cmd/benchjson -out BENCH_svd.json
//
// Lines that are not benchmark results (pkg:, cpu:, PASS, ok ...) are
// carried through as metadata or ignored; the tool exits non-zero if the
// input contains no benchmark lines at all, so a typo in -bench fails the
// make target instead of writing an empty file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"nsPerOp"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was on.
	BytesPerOp  *int64 `json:"bytesPerOp,omitempty"`
	AllocsPerOp *int64 `json:"allocsPerOp,omitempty"`
	// Extra holds the benchmark's own b.ReportMetric pairs by unit, e.g.
	// "segtimes/op" on BenchmarkPublish.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Doc is the emitted JSON document.
type Doc struct {
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out string) error {
	var doc Doc
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseLine(line)
			if !ok {
				return fmt.Errorf("malformed benchmark line: %q", line)
			}
			doc.Benchmarks = append(doc.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}

// parseLine parses one result line, e.g.
//
//	BenchmarkSVDLookup-4   2825542   870.4 ns/op   101 B/op   5 allocs/op
//
// Unit pairs beyond the three standard ones are b.ReportMetric values and
// are kept in Extra.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		f, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		v := int64(f)
		switch fields[i+1] {
		case "B/op":
			r.BytesPerOp = &v
		case "allocs/op":
			r.AllocsPerOp = &v
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[fields[i+1]] = f
		}
	}
	return r, true
}
