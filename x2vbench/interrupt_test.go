package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildAll builds x2vec, x2vecd and the benchmark into a fresh directory.
func buildAll(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, pkg := range []string{"repro/cmd/x2vec", "repro/cmd/x2vecd", "."} {
		out := filepath.Join(bin, filepath.Base(pkg))
		if pkg == "." {
			out = filepath.Join(bin, "x2vbench")
		}
		if b, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, b)
		}
	}
	return bin
}

var startedRE = regexp.MustCompile(`started (\S+) pid (\d+)`)

// TestInterruptLeavesNothing interrupts runs while children are alive —
// during the HTTP window of serve-kge and during a training process of
// train — and checks that the benchmark exits with 130, that every pid it
// reported starting is gone, and that its temporary directory is removed.
func TestInterruptLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs the benchmark")
	}
	bin := buildAll(t)
	for _, tc := range []struct {
		workload string
		sig      syscall.Signal
		after    string // interrupt once this many children of this name started
		count    int
	}{
		{"serve-kge", syscall.SIGINT, "x2vecd", coldStartsBefore},
		{"train", syscall.SIGTERM, "x2vec", 2},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			root := t.TempDir()
			cmd := exec.Command(filepath.Join(bin, "x2vbench"), "-workload", tc.workload, "-seconds", "30",
				"-root", root, "-bin", bin)
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var pids []int
			seen := 0
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				m := startedRE.FindStringSubmatch(sc.Text())
				if m == nil {
					continue
				}
				pid, _ := strconv.Atoi(m[2])
				pids = append(pids, pid)
				if filepath.Base(m[1]) == tc.after {
					seen++
				}
				if seen == tc.count {
					time.Sleep(300 * time.Millisecond) // let the child get busy
					if err := cmd.Process.Signal(tc.sig); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			go func() {
				for sc.Scan() { // drain so the benchmark never blocks on stderr
				}
			}()
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err = <-done:
			case <-time.After(60 * time.Second):
				_ = cmd.Process.Kill()
				t.Fatal("benchmark did not exit within 60s of the signal")
			}
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 130 {
				t.Fatalf("exit after %v: %v, want status 130", tc.sig, err)
			}
			if len(pids) == 0 {
				t.Fatal("no child was reported started")
			}
			for _, pid := range pids {
				if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
					t.Errorf("child pid %d survived the interrupted run (kill 0: %v)", pid, err)
				}
			}
			entries, err := os.ReadDir(filepath.Join(root, ".bench_build"))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), "run-") {
					t.Errorf("temporary directory %s left behind", e.Name())
				}
			}
		})
	}
}
