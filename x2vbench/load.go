package main

// Closed-loop load: each client sends its next request only after the
// previous answer has been read in full. Requests are numbered; client c of
// C sends numbers c, c+C, c+2C, … so the stream each client sends is fixed
// by the seed, whatever the timing. Responses are kept (deduplicated by a
// hash of the body) and checked after the timed window, so checking costs
// nothing inside it.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// op is one request a workload wants sent.
type op struct {
	ep   int // endpoint index into the workload's endpoint names
	idx  int // request number, from which the request can be regenerated
	path string
	body []byte
}

// sample is one answered (or failed) request.
type sample struct {
	ep     int
	idx    int
	status int
	us     float64
	at     float64 // seconds from the window opening to the request being sent
	hash   uint64
}

type loadResult struct {
	samples []sample
	bodies  map[uint64][]byte
	elapsed time.Duration
	cpu     float64 // CPU seconds the daemon spent during the window
	rssMB   float64 // the daemon's peak RSS at request spec.rssAt; 0 if not reached
}

// nextFunc returns client c's request number k; elapsed is the time since
// the window opened, for workloads that interleave timed writes.
type nextFunc func(k int, elapsed time.Duration) op

// loadSpec shapes one closed-loop pass.
type loadSpec struct {
	dur time.Duration // how long the pass runs; 0 with perClient > 0
	// perClient > 0 makes every client send exactly that many requests
	// (warm-ups, so that what the daemon has seen before the timed window
	// does not depend on its speed).
	perClient int
	// round > 1 lets a client stop only after a whole number of rounds of
	// that many requests, so every run attempts whole rounds of the same
	// operations.
	round int
	// rssAt > 0 reads the daemon's peak RSS once that many requests of the
	// pass have been answered; a footprint read after a fixed amount of
	// work does not grow with throughput.
	rssAt int
}

// runLoad drives `clients` closed loops against d as spec says (or until
// ctx ends). newNext builds each client's request generator.
func runLoad(ctx context.Context, d *daemon, clients int, spec loadSpec, newNext func(c int) nextFunc) (*loadResult, error) {
	type clientOut struct {
		samples []sample
		bodies  map[uint64][]byte
	}
	outs := make([]clientOut, clients)
	cpu0, err := cpuSeconds(d.c.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	round := max(spec.round, 1)
	var answered atomic.Int64
	var rssOnce sync.Once
	var rssMB float64
	var rssErr error
	start := time.Now()
	deadline := start.Add(spec.dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := newNext(c)
			out := &outs[c]
			out.bodies = map[uint64][]byte{}
			var buf bytes.Buffer
			for k := 0; ; k++ {
				now := time.Now()
				if ctx.Err() != nil {
					return
				}
				if spec.perClient > 0 {
					if k == spec.perClient {
						return
					}
				} else if k%round == 0 && !now.Before(deadline) {
					return
				}
				o := next(k, now.Sub(start))
				s, err := send(ctx, d, o, &buf)
				s.at = now.Sub(start).Seconds()
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					s.status = -1
				}
				if _, ok := out.bodies[s.hash]; !ok && s.status == http.StatusOK {
					out.bodies[s.hash] = append([]byte(nil), buf.Bytes()...)
				}
				out.samples = append(out.samples, s)
				if spec.rssAt > 0 && answered.Add(1) == int64(spec.rssAt) {
					rssOnce.Do(func() { rssMB, rssErr = peakRSSMB(d.c.cmd.Process.Pid) })
				}
			}
		}(c)
	}
	wg.Wait()
	res := &loadResult{bodies: map[uint64][]byte{}, elapsed: time.Since(start), rssMB: rssMB}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	cpu1, err := cpuSeconds(d.c.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		for h, b := range o.bodies {
			res.bodies[h] = b
		}
	}
	return res, nil
}

// send posts one request and reads the whole answer into buf.
func send(ctx context.Context, d *daemon, o op, buf *bytes.Buffer) (sample, error) {
	s := sample{ep: o.ep, idx: o.idx}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return s, err
	}
	req.Header.Set("Content-Type", "application/json")
	buf.Reset()
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return s, err
	}
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	s.us = float64(time.Since(t0).Nanoseconds()) / 1e3
	s.status = resp.StatusCode
	if err != nil {
		return s, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	s.hash = h.Sum64()
	return s, nil
}

// cpuSeconds reads a live process's user plus system CPU time from
// /proc/PID/stat (fields 14 and 15, in USER_HZ = 100 ticks per second).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times %q %q", pid, f[11], f[12])
	}
	return float64(utime+stime) / 100, nil
}

// peakRSSMB reads a live process's peak resident set size so far (VmHWM in
// /proc/PID/status) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				if err == nil {
					return float64(kb) / 1024, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// getBody fetches a GET endpoint (e.g. /stats) into memory.
func getBody(ctx context.Context, d *daemon, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// latencyStats summarises the latencies (ms) of the samples of the given
// endpoints that answered 200.
type latencyStats struct {
	n              int
	failed         int
	p50, p90, tail float64
	tailLabel      string
	qps            float64
}

func summarise(res *loadResult, eps map[int]bool) latencyStats {
	var ms []float64
	st := latencyStats{}
	for _, s := range res.samples {
		if !eps[s.ep] {
			continue
		}
		if s.status != http.StatusOK {
			st.failed++
			continue
		}
		ms = append(ms, s.us/1e3)
	}
	st.n = len(ms)
	if st.n == 0 {
		return st
	}
	st.p50 = median(ms)
	st.p90 = quantile(ms, 0.9)
	st.tail, st.tailLabel = tail(ms)
	st.qps = throughput(res, eps)
	return st
}

// rateBucket is the interval over which throughput is counted.
const rateBucket = 0.5 // seconds

// throughput is the median, over the whole rateBucket intervals of the
// window, of the requests of the given endpoints answered 200 per second
// (by completion time). On a host whose CPU comes and goes, the median of
// the intervals keeps a stall of a few seconds from moving the figure the
// way it moves the window's mean; windows shorter than four intervals
// fall back to the mean.
func throughput(res *loadResult, eps map[int]bool) float64 {
	nb := int(res.elapsed.Seconds() / rateBucket)
	counts := make([]float64, nb)
	n := 0
	for _, s := range res.samples {
		if !eps[s.ep] || s.status != http.StatusOK {
			continue
		}
		n++
		if b := int((s.at + s.us/1e6) / rateBucket); b < nb {
			counts[b]++
		}
	}
	if nb < 4 {
		return float64(n) / res.elapsed.Seconds()
	}
	return median(counts) / rateBucket
}

// perSecond counts the answered requests sent in each second of the window.
func perSecond(res *loadResult) []int {
	counts := make([]int, int(res.elapsed.Seconds())+1)
	for _, s := range res.samples {
		if s.status == http.StatusOK {
			counts[int(s.at)]++
		}
	}
	return counts
}
