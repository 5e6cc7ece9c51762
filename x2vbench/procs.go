package main

// Child processes and the run's temporary directory. Every x2vec and x2vecd
// the benchmark starts is registered here: it runs in its own process
// group, dies with the benchmark through the Linux parent-death signal, and
// is stopped (SIGTERM, then SIGKILL after a grace period) and reaped on
// every exit path. close() then confirms that no started pid is alive and
// that the temporary directory is gone.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

const stopGrace = 3 * time.Second

type env struct {
	bin, tmp string

	mu      sync.Mutex
	live    map[int]*child
	started []int
}

func newEnv(root, bin string) (*env, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{bin: bin, tmp: tmp, live: map[int]*child{}}, nil
}

func (e *env) path(name string) string { return filepath.Join(e.tmp, name) }

// child is one started process. done closes once it has been reaped.
type child struct {
	name   string
	cmd    *exec.Cmd
	done   chan struct{}
	err    error
	stderr *tailBuffer
	start  time.Time
	end    time.Time
}

// start launches a binary from the benchmark's bin directory (or an
// absolute path) with stdout discarded and the tail of stderr kept for
// error reports.
func (e *env) start(name string, args ...string) (*child, error) {
	bin := name
	if !filepath.IsAbs(bin) {
		bin = filepath.Join(e.bin, name)
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = e.tmp
	cmd.Stdout = io.Discard
	tb := &tailBuffer{max: 4096}
	cmd.Stderr = tb
	// SIGTERM as the parent-death signal lets a daemon drain and a child
	// benchmark (repeat mode) clean up after itself if this process is
	// killed outright; neither ignores it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGTERM}
	c := &child{name: name, cmd: cmd, done: make(chan struct{}), stderr: tb}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.live == nil {
		return nil, errors.New("benchmark is shutting down")
	}
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	pid := cmd.Process.Pid
	e.live[pid] = c
	e.started = append(e.started, pid)
	fmt.Fprintf(os.Stderr, "x2vbench: started %s pid %d\n", name, pid)
	go func() {
		c.err = cmd.Wait()
		c.end = time.Now()
		e.mu.Lock()
		delete(e.live, pid)
		e.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// wait blocks until c exits or ctx ends; on ctx the child is stopped.
func (e *env) wait(ctx context.Context, c *child) error {
	select {
	case <-c.done:
	case <-ctx.Done():
		e.stop(c)
		return ctx.Err()
	}
	if c.err != nil {
		return fmt.Errorf("%s: %v: %s", c.name, c.err, bytes.TrimSpace(c.stderr.Bytes()))
	}
	return nil
}

// stop sends SIGTERM to the child's process group, escalates to SIGKILL
// after the grace period, and returns once the child is reaped.
func (e *env) stop(c *child) {
	select {
	case <-c.done:
		return
	default:
	}
	pid := c.cmd.Process.Pid
	_ = syscall.Kill(-pid, syscall.SIGTERM) // ESRCH if it exited meanwhile
	select {
	case <-c.done:
		return
	case <-time.After(stopGrace):
	}
	_ = syscall.Kill(-pid, syscall.SIGKILL)
	<-c.done
}

// maxRSSMB is the child's peak resident set size from its rusage; valid
// once the child has been reaped.
func (c *child) maxRSSMB() float64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// run starts a process and waits for it; the child records its start and
// end times and, once reaped, its rusage.
func (e *env) run(ctx context.Context, name string, args ...string) (*child, error) {
	c, err := e.start(name, args...)
	if err != nil {
		return nil, err
	}
	return c, e.wait(ctx, c)
}

// close stops every live child, removes the temporary directory and
// confirms both: no started pid may still exist and the directory must be
// gone.
func (e *env) close() error {
	e.mu.Lock()
	live := make([]*child, 0, len(e.live))
	for _, c := range e.live {
		live = append(live, c)
	}
	e.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range live {
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			e.stop(c)
		}(c)
	}
	wg.Wait()
	e.mu.Lock()
	e.live = nil // refuse further starts
	started := e.started
	e.mu.Unlock()

	var errs []error
	for _, pid := range started {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			errs = append(errs, fmt.Errorf("pid %d still exists after cleanup", pid))
		}
	}
	if err := os.RemoveAll(e.tmp); err != nil {
		errs = append(errs, err)
	}
	if _, err := os.Stat(e.tmp); !errors.Is(err, os.ErrNotExist) {
		errs = append(errs, fmt.Errorf("temporary directory %s still exists", e.tmp))
	}
	fmt.Fprintf(os.Stderr, "x2vbench: cleanup stopped %d live of %d started processes, removed %s\n",
		len(live), len(started), e.tmp)
	return errors.Join(errs...)
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) Bytes() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]byte(nil), t.buf...)
}

// daemon is a running x2vecd on a loopback port.
type daemon struct {
	c      *child
	base   string
	client *http.Client
	setup  time.Duration // exec to first 200 from /healthz
}

// freePort asks the kernel for an unused loopback port. x2vecd logs its
// -addr flag rather than the bound address, so the port is chosen here.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches x2vecd with the given flags plus a fresh -addr and
// polls /healthz until it answers 200. A daemon that exits before that
// (say, because the port was taken in between) is retried on a new port.
func (e *env) startDaemon(ctx context.Context, clients int, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		base := "http://127.0.0.1:" + strconv.Itoa(port)
		c, err := e.start("x2vecd", append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)...)
		if err != nil {
			return nil, err
		}
		setup, err := pollHealthz(ctx, c, base)
		if err == nil {
			return &daemon{c: c, base: base, setup: setup, client: loadClient(clients)}, nil
		}
		e.stop(c)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = fmt.Errorf("x2vecd did not become healthy: %v: %s", err, bytes.TrimSpace(c.stderr.Bytes()))
	}
	return nil, lastErr
}

// pollHealthz asks for /healthz every millisecond until it answers 200 and
// returns the time since exec. Polling faster than that, with a new
// connection each time, competes for the CPU with the start-up it times;
// the one connection that succeeds is kept alive.
func pollHealthz(ctx context.Context, c *child, base string) (time.Duration, error) {
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := probe.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(c.start), nil
			}
		}
		select {
		case <-c.done:
			return 0, fmt.Errorf("exited early (%v)", c.err)
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return 0, errors.New("timed out waiting for /healthz")
}

func loadClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		},
	}
}

// shutdown stops the daemon gracefully and returns its peak RSS in MB.
func (e *env) shutdown(d *daemon) float64 {
	d.client.CloseIdleConnections()
	e.stop(d.c)
	return d.c.maxRSSMB()
}

// coldStarts starts x2vecd `times` times with the same flags, measuring
// set-up each time; all but the last are stopped again. It returns the
// last daemon, still running, and every set-up in seconds.
func (e *env) coldStarts(ctx context.Context, times, clients int, args ...string) (*daemon, []float64, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < times; i++ {
		if d != nil {
			e.shutdown(d)
		}
		var err error
		d, err = e.startDaemon(ctx, clients, args...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	return d, setups, nil
}

// coldStartsBefore is how many of a serve workload's cold starts run
// before the timed window (the last of them serves it); the rest run after
// it, so their median samples the host at two moments half a minute apart
// rather than in one burst.
const coldStartsBefore = coldStarts/2 + 1

// coldStartsAfter runs the remaining cold starts after the window and
// returns the median set-up of all of them.
func (e *env) coldStartsAfter(ctx context.Context, before []float64, args ...string) (float64, error) {
	d, after, err := e.coldStarts(ctx, coldStarts-len(before), clients, args...)
	if err != nil {
		return 0, err
	}
	e.shutdown(d)
	return median(append(append([]float64(nil), before...), after...)), nil
}
