// Command bench is the repository's benchmark: eight named workloads over
// the whole job path, end-to-end metrics with regression bounds, and a
// separate traced run that reports per-layer metrics. BENCHMARK.json at
// the repository root describes it; bench/README.md explains it.
//
//	go run ./bench -seed 1                      every workload, full report
//	go run ./bench -seed 1 -trace               the traced run (per-layer metrics, span files)
//	go run ./bench -seed 1 -repeat 2            two sets of the same code; fails if they disagree
//	go run ./bench -workload ingest -seed 7     one workload; the last stdout line is its result
//
// With -workload the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

//go:embed golden/seed1.json
var goldenJSON []byte

const goldenPath = "bench/golden/seed1.json"

// goldenSeed is the seed whose exact outputs are committed.
const goldenSeed = 1

func main() {
	var (
		name   = flag.String("workload", "", "run only this workload, in this process (default: every workload, each in its own process)")
		seed   = flag.Int64("seed", goldenSeed, "workload seed: the same seed gives the same inputs")
		secs   = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced = flag.Int("trace", 0, "1 makes the traced run: per-layer metrics and bench/out/trace-<workload>.json")
		repeat = flag.Int("repeat", 1, "run this many sets back to back and fail if an end-to-end metric differs between them by more than its bound")
		regold = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from a seed-1 run checked against the in-process references")
	)
	if err := flag.CommandLine.Parse(normalizeArgs(os.Args[1:])); err != nil {
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	dur := time.Duration(*secs * float64(time.Second))
	if *name != "" {
		os.Exit(runSingle(*name, *seed, dur, *traced != 0, *regold))
	}
	os.Exit(runAll(*seed, *secs, *traced != 0, *repeat, *regold))
}

// normalizeArgs lets -trace stand alone and lets it take its value as
// a separate word ("--trace 1"), which the flag package's boolean
// flags cannot.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if a := strings.TrimLeft(args[i], "-"); a == "trace" && strings.HasPrefix(args[i], "-") {
			v := "1"
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				v = args[i+1]
				i++
			}
			out = append(out, "-trace="+v)
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// contract is the last line a single-workload run prints.
type contract struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSingle runs one workload in this process and prints two JSON
// lines: the detailed result, then the contract line.
func runSingle(name string, seed int64, dur time.Duration, traced, regold bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	// More generator threads than CPUs would measure the generator.
	if w.threads > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: workload %s needs %d generator threads but the host has %d CPUs\n", name, w.threads, runtime.NumCPU())
		return 1
	}
	out, bin, tmp := benchDirs()
	tmp = filepath.Join(tmp, fmt.Sprint(os.Getpid()))
	e := &env{seed: seed, scale: 1, out: out, tmp: tmp}
	defer os.RemoveAll(tmp)
	// A signal must not leave daemons or state directories behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sigc
		killChildren()
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	if w.needsBinaries {
		if err := buildBinaries(".", bin); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		e.host = childHost(bin)
	}
	if seed == goldenSeed && !regold {
		var all map[string]map[string]string
		if err := json.Unmarshal(goldenJSON, &all); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", goldenPath, err)
			return 1
		}
		e.golden = all[w.name] // nil when nothing is recorded: the references are derived instead
	}
	res, err := runWorkload(w, e, dur, traced)
	killChildren()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", name, p)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	c := contract{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured\n", name, d.Name)
			return 1
		}
		c.Metrics[d.Name] = contractValue{v, d.Unit}
	}
	detail, _ := json.Marshal(res)
	last, _ := json.Marshal(c)
	fmt.Printf("%s\n%s\n", detail, last)
	if !res.Correct {
		return 1
	}
	return 0
}

// header records what a report was measured on.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	Traced     bool    `json:"traced"`
}

// reportMetric is one metric of one workload as the full report prints
// it.
type reportMetric struct {
	Workload string   `json:"workload"`
	Name     string   `json:"name"`
	Value    float64  `json:"value"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Samples  int      `json:"samples"`
	Bound    *float64 `json:"bound,omitempty"`
	Layer    string   `json:"layer,omitempty"`
	Moves    string   `json:"should_move,omitempty"`
	Def      string   `json:"definition"`
}

// comparison is one end-to-end metric of a later set against the first.
type comparison struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Base     float64 `json:"set_1"`
	Value    float64 `json:"value"`
	Set      int     `json:"set"`
	Ratio    float64 `json:"ratio_to_set_1"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within_bound"`
}

// runAll runs every workload, each in its own process, and prints one
// report. It returns non-zero if a check failed or two sets disagree.
func runAll(seed int64, secs float64, traced bool, repeat int, regold bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if regold {
		seed = goldenSeed
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	report := struct {
		Header      header         `json:"header"`
		Metrics     []reportMetric `json:"metrics"`
		Runs        []*result      `json:"runs"`
		Comparisons []comparison   `json:"comparisons,omitempty"`
		OK          bool           `json:"ok"`
	}{Header: header{commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, secs, traced}, OK: true}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	first := map[string]*result{}
	for set := 1; set <= max(repeat, 1); set++ {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs)}
			if traced {
				args = append(args, "-trace=1")
			}
			if regold {
				args = append(args, "-update-golden")
			}
			fmt.Fprintf(os.Stderr, "bench: set %d: %s\n", set, w.name)
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			res := &result{}
			line, _, _ := strings.Cut(string(stdout), "\n")
			if err := json.Unmarshal([]byte(line), res); err != nil || res.Workload != w.name {
				fmt.Fprintf(os.Stderr, "bench: %s printed no result (%v)\n", w.name, runErr)
				return 1
			}
			report.Runs = append(report.Runs, res)
			report.OK = report.OK && res.Correct && runErr == nil
			base := first[w.name]
			if base == nil {
				first[w.name] = res
			}
			for _, d := range defs {
				m := reportMetric{Workload: w.name, Name: d.Name, Value: res.Metrics[d.Name], Unit: d.Unit, Better: d.Better,
					Samples: res.Samples, Layer: d.Layer, Moves: d.Moves, Def: d.Def}
				if !traced {
					b := d.Bound
					m.Bound = &b
				}
				if base == nil {
					report.Metrics = append(report.Metrics, m)
				} else if !traced {
					c := compare(d, base.Metrics[d.Name], m.Value)
					c.Workload, c.Set = w.name, set
					report.Comparisons = append(report.Comparisons, c)
					report.OK = report.OK && c.Within
				}
			}
			if base != nil && fmt.Sprint(base.Facts, base.Stored) != fmt.Sprint(res.Facts, res.Stored) {
				fmt.Fprintf(os.Stderr, "bench: %s: exact values differ between sets: %v %v then %v %v\n", w.name, base.Facts, base.Stored, res.Facts, res.Stored)
				report.OK = false
			}
		}
	}
	if regold && report.OK {
		facts := map[string]map[string]string{}
		for name, res := range first {
			facts[name] = res.Facts
		}
		data, _ := json.MarshalIndent(facts, "", "  ")
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	data, _ := json.MarshalIndent(report, "", "  ")
	fmt.Println(string(data))
	if !report.OK {
		return 1
	}
	return 0
}

// compare judges a later set's value against the first set's: the two
// ran the same code, so a difference beyond the metric's bound in
// either direction means the benchmark cannot resolve that bound.
func compare(d metricDef, base, v float64) comparison {
	return comparison{Name: d.Name, Base: base, Value: v, Ratio: v / base, Bound: d.Bound, Within: math.Abs(v/base-1) <= d.Bound}
}
