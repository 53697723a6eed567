// Command atomicd is the crash-safe simulation job server: an
// HTTP/JSON daemon that accepts experiment jobs (machines + workloads
// + options), executes them on a bounded worker pool over the cell
// scheduler, and survives kills, overload, and poisoned requests.
// DESIGN.md ("Simulation as a service") documents the lifecycle state
// machine and the degradation policy; README.md has a curl quickstart.
//
// Usage:
//
//	atomicd -dir run/             # serve on 127.0.0.1:0, state in run/
//	atomicd -dir run/ -addr :8080 # explicit listen address
//	atomicd -dir run/ -workers 4  # job worker pool size
//	atomicd -dir run/ -queue 32   # admission queue depth (full → 429)
//	atomicd -dir run/ -perclient 8# per-client in-flight cap (→ 429)
//	atomicd -dir run/ -deadline 5m# per-job wall-clock deadline
//	atomicd -checkjournal run/    # validate a job journal and exit
//	atomicd -dir run/ -faults crash=20   # crash drill: hard-exit after 20 cells
//
// The daemon writes its actual listen address to <dir>/atomicd.addr
// (useful with -addr :0 under test harnesses), journals every job
// write-ahead to <dir>/jobs.jsonl, and shares <dir>/cells.jsonl with
// the CLI tools — a job killed mid-run resumes from its completed
// cells on the next start. A job runs once per submission: a failed
// job stays failed until a client resubmits it, and the resubmission
// replays the cells the failed run finished. SIGTERM/SIGINT drains:
// admission stops (429/503), accepted jobs finish, state flushes, then
// it exits 0. A second signal aborts the drain immediately; the journal
// recovers whatever was cut off.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/jobs"
)

// addrFile is where the daemon publishes its live listen address.
const addrFile = "atomicd.addr"

func main() {
	var (
		dir       = flag.String("dir", "", "run directory for the job journal, cell cache, and addr file (required)")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address; :0 picks a free port (published to <dir>/atomicd.addr)")
		workers   = flag.Int("workers", 2, "job worker pool size")
		queue     = flag.Int("queue", 16, "admission queue depth; a full queue sheds submits with 429")
		perClient = flag.Int("perclient", 4, "max queued+running jobs per client (X-Client header or remote host)")
		deadline  = flag.Duration("deadline", 10*time.Minute, "per-job wall-clock deadline")
		par       = flag.Int("par", runtime.NumCPU(), "max concurrent simulation cells per job")
		cellTO    = flag.Duration("celltimeout", 0, "wall-clock watchdog deadline per simulation cell (0 = none)")
		drainTO   = flag.Duration("draintimeout", 2*time.Minute, "max time to let accepted jobs finish on SIGTERM before exiting anyway")
		faultSpec = flag.String("faults", "", "fault drills: cell faults (jitter=PCT,...) plus the daemon hook crash=N (hard-exit after N completed cells)")
		checkDir  = flag.String("checkjournal", "", "validate a run directory's job journal, print a summary, and exit")
		quiet     = flag.Bool("quiet", false, "suppress operational logging on stderr")
	)
	flag.Parse()

	if *checkDir != "" {
		summary, err := jobs.ValidateJournal(*checkDir)
		if err != nil {
			fatal(err)
		}
		fmt.Println(summary)
		return
	}
	if *dir == "" {
		fatal(fmt.Errorf("atomicd: -dir is required (the run directory holding the journal and cell cache)"))
	}

	var plan *faults.Plan
	if *faultSpec != "" {
		var err error
		plan, err = faults.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
	}

	logger := log.New(os.Stderr, "atomicd: ", log.LstdFlags)
	if *quiet {
		logger = nil
	}
	srv, err := jobs.New(jobs.Config{
		Dir:         *dir,
		Workers:     *workers,
		QueueDepth:  *queue,
		PerClient:   *perClient,
		JobDeadline: *deadline,
		CellPar:     *par,
		CellTimeout: *cellTO,
		Faults:      plan,
		Log:         logger,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Publish the live address before serving, so harnesses that start
	// us with :0 can find the port as soon as requests would succeed.
	addrPath := filepath.Join(*dir, addrFile)
	if err := os.WriteFile(addrPath, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	if logger != nil {
		logger.Printf("serving on %s (state in %s, %d recovered jobs)", ln.Addr(), *dir, srv.Recovered())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		if logger != nil {
			logger.Printf("%v: draining (max %v; signal again to abort)", sig, *drainTO)
		}
	case err := <-serveErr:
		fatal(err)
	}

	// Graceful degradation on shutdown: stop admitting first (readyz
	// flips to 503, submits shed), let accepted jobs finish, then close
	// the journal and cache. A second signal — or the drain
	// timeout — cuts it short; the write-ahead journal makes that safe.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	go func() {
		<-sigs
		if logger != nil {
			logger.Printf("second signal: aborting drain")
		}
		cancel()
	}()
	drainErr := srv.Drain(drainCtx)
	cancel()
	httpSrv.Close()
	os.Remove(addrPath)
	if drainErr != nil {
		if logger != nil {
			logger.Printf("drain cut short: %v (journal will recover pending jobs)", drainErr)
		}
		os.Exit(1)
	}
	if logger != nil {
		logger.Printf("drained clean")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
