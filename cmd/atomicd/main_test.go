package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCrashRecoveryByteIdentical is the daemon's crash drill: a child
// atomicd with the crash=N fault armed hard-exits mid-job (os.Exit —
// no drain, no flush, SIGKILL semantics at a deterministic cell
// count), a clean child restarts on the same directory, and the
// recovered job's result must be byte-identical to a run that never
// crashed. It exercises the full stack end to end: journal replay,
// cell-cache resume, and deterministic rendering.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives child processes")
	}
	bin := buildDaemon(t)
	spec := `{"machines":["XeonE5"],"workloads":["high-faa"],"quick":true}`

	// Reference: a clean daemon in a fresh directory.
	cleanDir := t.TempDir()
	clean := startDaemon(t, bin, cleanDir)
	id, want := runJob(t, clean.addr, spec)
	clean.terminate(t)

	// Crash drill: a daemon armed to die after 3 completed cells.
	crashDir := t.TempDir()
	crashed := startDaemon(t, bin, crashDir, "-faults", "crash=3")
	// The job's worker may reach the crash point before the handler's
	// 202 reaches the client (fast-forwarded cells take microseconds),
	// so a connection dropped mid-response is a valid outcome of the
	// submit; that the job was accepted is proven by the journal check
	// below either way. Any other error is a real failure.
	resp, err := http.Post("http://"+crashed.addr+"/jobs", "application/json", strings.NewReader(spec))
	switch {
	case err == nil:
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit to crashing daemon = %d", resp.StatusCode)
		}
	case !droppedMidResponse(err):
		t.Fatalf("submit to crashing daemon: %v", err)
	}
	if err := crashed.cmd.Wait(); err == nil {
		t.Fatal("armed daemon exited 0; the crash hook never fired")
	}
	if out, err := exec.Command(bin, "-checkjournal", crashDir).Output(); err != nil {
		t.Fatalf("checkjournal after crash: %v", err)
	} else if !strings.Contains(string(out), "1 pending") {
		t.Fatalf("journal after crash = %q, want the job pending", out)
	}

	// Recovery: a clean daemon on the crashed directory finishes the
	// journaled job without any client resubmitting it.
	second := startDaemon(t, bin, crashDir)
	defer second.terminate(t)
	st := pollJob(t, second.addr, id)
	if st.State != "done" {
		t.Fatalf("recovered job = %+v, want done", st)
	}
	got := fetchResult(t, second.addr, id)
	if !bytes.Equal(got, want) {
		t.Errorf("recovered result differs from the never-crashed run:\n--- clean\n%s\n--- recovered\n%s", want, got)
	}
}

// TestDrainLeavesNoPendingJobs: SIGTERM after a completed job drains
// clean — exit 0, addr file removed, journal replay shows nothing
// pending for a future daemon to re-run.
func TestDrainLeavesNoPendingJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives child processes")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	d := startDaemon(t, bin, dir)
	runJob(t, d.addr, `{"machines":["XeonE5"],"workloads":["high-faa"],"quick":true}`)

	d.cmd.Process.Signal(os.Interrupt)
	waitExit(t, d, 15*time.Second)
	if _, err := os.Stat(filepath.Join(dir, "atomicd.addr")); !os.IsNotExist(err) {
		t.Errorf("addr file survived a clean drain (stat err %v)", err)
	}
	out, err := exec.Command(bin, "-checkjournal", dir).Output()
	if err != nil {
		t.Fatalf("checkjournal: %v", err)
	}
	if !strings.Contains(string(out), "0 pending") {
		t.Fatalf("journal after drain = %q, want 0 pending", out)
	}
}

// droppedMidResponse reports whether err is the peer closing the
// connection after the request was sent: the only submit error a
// daemon exiting inside the handler can cause.
func droppedMidResponse(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, syscall.ECONNRESET)
}

type daemon struct {
	cmd  *exec.Cmd
	addr string
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "atomicd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func startDaemon(t *testing.T, bin, dir string, extra ...string) *daemon {
	t.Helper()
	// A crashed daemon leaves its addr file behind (nothing ran to
	// clean it up); drop it so the wait below can only see the new
	// daemon's address.
	addrPath := filepath.Join(dir, "atomicd.addr")
	os.Remove(addrPath)
	args := append([]string{"-dir", dir, "-quiet"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrPath); err == nil && len(b) > 0 {
			return &daemon{cmd: cmd, addr: strings.TrimSpace(string(b))}
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatalf("daemon never published %s", addrPath)
	return nil
}

func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if d.cmd.ProcessState != nil {
		return
	}
	d.cmd.Process.Signal(os.Interrupt)
	waitExit(t, d, 15*time.Second)
}

func waitExit(t *testing.T, d *daemon, timeout time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v", err)
		}
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// runJob submits spec, waits for completion, and returns (job ID,
// result bytes).
func runJob(t *testing.T, addr, spec string) (string, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := pollJob(t, addr, st.ID); got.State != "done" {
		t.Fatalf("job = %+v, want done", got)
	}
	return st.ID, fetchResult(t, addr, st.ID)
}

func pollJob(t *testing.T, addr, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/jobs/%s?wait=60s", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func fetchResult(t *testing.T, addr, id string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/jobs/%s/result", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, b)
	}
	return b
}

// TestRetriesFlagZeroMeansNone pins the -retries mapping: zero, the
// value that asks for no retry, must not reach jobs.Config as zero,
// which the library reads as "default" (one retry).
func TestRetriesFlagZeroMeansNone(t *testing.T) {
	for flagValue, want := range map[int]int{0: -1, 1: 1, 3: 3, -1: -1} {
		if got := jobRetries(flagValue); got != want {
			t.Errorf("jobRetries(%d) = %d, want %d", flagValue, got, want)
		}
	}
}
