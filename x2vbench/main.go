// Command x2vbench is the end-to-end benchmark of the x2vec stack. It runs
// one workload against freshly built x2vec and x2vecd binaries, timing
// them from outside (real HTTP against a running daemon, whole training
// processes), checks every output against oracles of its own, and prints
// the metrics. With -trace 1 it instead replays every workload's inputs
// in process through the layers' public functions and prints per-layer
// metrics. Build and run it through run.sh from the repository root:
//
//	bash x2vbench/run.sh --workload serve-graphs --seed 1 --seconds 10 --trace 0
//	bash x2vbench/run.sh --workload train --seed 1 --seconds 10 --repeat 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every check passed; 130 after SIGINT or SIGTERM, after cleanup.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// Workload names, as BENCHMARK.json and the README use them.
var workloads = map[string]func(context.Context, *env, *config, *report) error{
	"serve-graphs": serveGraphs,
	"serve-kge":    serveKGE,
	"train":        train,
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	repeat   int
	root     string
	bin      string
	stdout   string
}

func main() { os.Exit(run()) }

func run() (code int) {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "x2vbench:", err)
		return 2
	}
	if cfg.repeat > 0 {
		return repeat(cfg)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(cfg.root, cfg.bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "x2vbench:", err)
		return 1
	}
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "x2vbench: panic: %v\n%s", p, debug.Stack())
			code = 2
		}
		if err := e.close(); err != nil {
			fmt.Fprintln(os.Stderr, "x2vbench: cleanup:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	rep := newReport(cfg)
	rep.fingerprint(cfg.root)
	if cfg.trace {
		err = traceRun(ctx, e, cfg, rep)
	} else {
		err = workloads[cfg.workload](ctx, e, cfg, rep)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "x2vbench: interrupted")
		return 130
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "x2vbench:", err)
		return 1
	}
	w := os.Stdout
	if cfg.stdout != "" {
		f, err := os.Create(cfg.stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "x2vbench:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if !rep.print(w) {
		return 1
	}
	return 0
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("x2vbench", flag.ContinueOnError)
	cfg := &config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "serve-graphs, serve-kge or train")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced in-process replay and prints per-layer metrics")
	fs.IntVar(&cfg.repeat, "repeat", 0, "run the workload this many times on seeds seed, seed+1, … and print medians and quartiles")
	fs.StringVar(&cfg.root, "root", ".", "repository root (the checkout)")
	fs.StringVar(&cfg.stdout, "stdout", "", "write the report to this file instead of standard output")
	fs.StringVar(&cfg.bin, "bin", "", "directory holding the x2vec and x2vecd binaries (default ROOT/.bench_build/bin)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown -workload %q (want serve-graphs, serve-kge or train)", cfg.workload)
	}
	if cfg.seconds < 1 || cfg.seconds > 120 {
		return nil, fmt.Errorf("-seconds %d outside [1, 120]", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace %d (want 0 or 1)", trace)
	}
	cfg.trace = trace == 1
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return nil, err
	}
	cfg.root = root
	if cfg.bin == "" {
		cfg.bin = filepath.Join(root, ".bench_build", "bin")
	}
	for _, b := range []string{"x2vec", "x2vecd"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return nil, fmt.Errorf("missing %s binary (build it with run.sh): %w", b, err)
		}
	}
	return cfg, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what a run prints: human-readable lines first, then the
// result object.
type report struct {
	cfg      *config
	lines    []string
	failures []string
	checks   int
	res      result
}

func newReport(cfg *config) *report {
	return &report{cfg: cfg, res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check records one output check.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.checks++
	if !ok {
		r.res.Correct = false
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// metric records a metric of the result object and echoes it as a line.
func (r *report) metric(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.linef("metric %-36s %14.6g %s", name, v, unit)
}

func (r *report) ops(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

func (r *report) fingerprint(root string) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				cpu = strings.TrimSpace(l[strings.Index(l, ":")+1:])
				break
			}
		}
	}
	r.linef("fingerprint cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitOf(root))
	r.linef("run workload=%s seed=%d seconds=%d trace=%v", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
}

// commitOf reads the checked-out commit from .git without running git;
// checkouts without a .git directory report "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(b))
	}
	return h
}

// print writes the report; it returns whether every check passed.
func (r *report) print(w *os.File) bool {
	r.linef("checks %d, failed %d", r.checks, len(r.failures))
	for i, f := range r.failures {
		if i == 10 {
			r.linef("check failure: … %d more", len(r.failures)-10)
			break
		}
		r.linef("check failure: %s", f)
	}
	r.linef("operations attempted=%d failed=%d", r.res.Attempted, r.res.Failed)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "x2vbench:", err)
		return false
	}
	fmt.Fprintln(w, string(b))
	return r.res.Correct
}

// repeat runs the workload n times, each in a fresh child process on its
// own seed, and prints each metric's median and quartiles.
func repeat(cfg *config) (code int) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "x2vbench:", err)
		return 1
	}
	e, err := newEnv(cfg.root, cfg.bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "x2vbench:", err)
		return 1
	}
	defer func() {
		if err := e.close(); err != nil {
			fmt.Fprintln(os.Stderr, "x2vbench: cleanup:", err)
			code = 1
		}
	}()
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []float64
	for i := 0; i < cfg.repeat; i++ {
		seed := cfg.seed + int64(i)
		out := filepath.Join(e.tmp, fmt.Sprintf("run-%d.out", i))
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		c, err := e.start(self, "-workload", cfg.workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-root", cfg.root, "-bin", cfg.bin,
			"-stdout", out)
		if err == nil {
			err = e.wait(ctx, c)
		}
		if ctx.Err() != nil {
			return 130
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "x2vbench: run %d (seed %d): %v\n", i, seed, err)
			return 1
		}
		res, err := lastResult(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "x2vbench: run %d (seed %d): %v\n", i, seed, err)
			return 1
		}
		failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Printf("run %d seed %d: %s\n", i, seed, compact(res))
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	summary := map[string]map[string]float64{}
	for _, n := range names {
		v := values[n]
		q1, q3 := quartiles(v)
		med := median(v)
		fmt.Printf("%-36s median %12.6g  q1 %12.6g  q3 %12.6g  iqr/median %6.3f  %s\n", n, med, q1, q3, (q3-q1)/med, units[n])
		summary[n] = map[string]float64{"median": med, "q1": q1, "q3": q3}
	}
	fmt.Printf("failed share per run: %v\n", failShares)
	b, _ := json.Marshal(map[string]any{"workload": cfg.workload, "runs": cfg.repeat, "metrics": summary})
	fmt.Println(string(b))
	return code
}

// quartiles are the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the "exclusive" method), the
// figures the bounds in BENCHMARK.json are checked against.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func compact(res *result) string {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.4g", n, res.Metrics[n].Value)
	}
	return b.String()
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	if res.Attempted < 1 {
		return nil, errors.New("result has no attempted operations")
	}
	return &res, nil
}
