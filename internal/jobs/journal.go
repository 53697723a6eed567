package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"atomicsmodel/internal/runlog"
)

// The job journal is the daemon's write-ahead log: <dir>/jobs.jsonl.
// Every admitted job appends a submit record — spec payload plus a
// content digest over it — BEFORE it becomes visible to workers, and a
// terminal record (done with the result digest, or failed with the
// error) when it finishes. Replaying the journal therefore
// reconstructs the daemon's whole job table after any crash: a job
// with a submit record and no terminal record was queued or in flight
// when the process died, and is simply re-run (its completed cells
// replay from the shared cell cache, so recovery converges instead of
// starting over).
//
// Like the runlog files it imitates, the journal is append-only and
// corruption-tolerant: a torn final line is the normal residue of a
// kill and is dropped silently-but-reported, an unparseable interior
// line or a submit record whose digest no longer matches its payload
// is quarantined (runlog.Quarantine) rather than trusted, and a
// terminal record for an unknown job is quarantined too.

// journalFile is the job journal's name inside the run directory.
const journalFile = "jobs.jsonl"

// Journal record types.
const (
	recSubmit = "job"    // job admitted: ID + canonical spec + spec digest
	recDone   = "done"   // job completed: ID + result digest
	recFailed = "failed" // job failed terminally: ID + error
)

// journalRecord is one line of jobs.jsonl, discriminated by Type.
type journalRecord struct {
	Type string `json:"type"`
	ID   string `json:"id"`
	// Spec is the job's canonical spec JSON (submit records only).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Digest is runlog.Digest over Spec on submit records, and the
	// job's result digest on done records.
	Digest string `json:"digest,omitempty"`
	// Error is the terminal error (failed records only).
	Error string `json:"error,omitempty"`
}

// RecoveredJob is one job reconstructed from the journal at open time.
type RecoveredJob struct {
	ID   string
	Spec *Spec
	// Raw is the canonical spec JSON as journaled.
	Raw json.RawMessage
	// Terminal state recovered for the job: StateQueued (no terminal
	// record — the job must re-run), StateDone (ResultDigest holds the
	// result's content hash), or StateFailed (Error holds the message).
	State        State
	ResultDigest string
	Error        string
}

// Journal appends job records to <dir>/jobs.jsonl. Methods are safe
// for concurrent use; every record is flushed before the append
// returns, so an admitted job is durable before its client hears 202.
type Journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// OpenJournal replays any existing job journal in dir and opens it for
// appending. It returns the recovered jobs in first-submission order
// and the quarantined (corrupt) lines; neither is an error.
func OpenJournal(dir string) (*Journal, []*RecoveredJob, []runlog.Quarantine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	path := filepath.Join(dir, journalFile)
	jobs, quarantined, err := replayJournal(path)
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	return &Journal{f: f, w: bufio.NewWriter(f)}, jobs, quarantined, nil
}

// replayJournal folds the journal's records into per-job final states.
func replayJournal(path string) ([]*RecoveredJob, []runlog.Quarantine, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	byID := map[string]*RecoveredJob{}
	var order []*RecoveredJob
	var quarantined []runlog.Quarantine
	lines := runlog.SplitLines(b)
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			reason := fmt.Sprintf("unparseable record: %v", err)
			if i == len(lines)-1 {
				reason = "torn final write (killed daemon)"
			}
			quarantined = append(quarantined, runlog.Quarantine{Line: i + 1, Reason: reason})
			continue
		}
		switch rec.Type {
		case recSubmit:
			if got := runlog.Digest(rec.Spec); got != rec.Digest {
				quarantined = append(quarantined, runlog.Quarantine{
					Line: i + 1, Key: rec.ID,
					Reason: fmt.Sprintf("spec digest mismatch: stored %s, payload hashes to %s", rec.Digest, got),
				})
				continue
			}
			spec, err := ParseSpec(rec.Spec)
			if err != nil {
				// Well-formed line, digest intact, but the spec no
				// longer parses (schema drift between versions):
				// quarantine rather than crash the daemon.
				quarantined = append(quarantined, runlog.Quarantine{
					Line: i + 1, Key: rec.ID,
					Reason: fmt.Sprintf("journaled spec no longer parses: %v", err),
				})
				continue
			}
			if j, ok := byID[rec.ID]; ok {
				// Resubmission after a terminal state: the job is
				// pending again, under the resubmitted spec's policy.
				j.Spec, j.Raw = spec, rec.Spec
				j.State, j.ResultDigest, j.Error = StateQueued, "", ""
				continue
			}
			j := &RecoveredJob{ID: rec.ID, Spec: spec, Raw: rec.Spec, State: StateQueued}
			byID[rec.ID] = j
			order = append(order, j)
		case recDone, recFailed:
			j, ok := byID[rec.ID]
			if !ok {
				quarantined = append(quarantined, runlog.Quarantine{
					Line: i + 1, Key: rec.ID,
					Reason: "terminal record for a job with no submit record",
				})
				continue
			}
			if rec.Type == recDone {
				j.State, j.ResultDigest, j.Error = StateDone, rec.Digest, ""
			} else {
				j.State, j.ResultDigest, j.Error = StateFailed, "", rec.Error
			}
		default:
			quarantined = append(quarantined, runlog.Quarantine{
				Line: i + 1, Reason: fmt.Sprintf("unknown record type %q", rec.Type),
			})
		}
	}
	return order, quarantined, nil
}

func (j *Journal) emit(rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(b); err != nil {
		return err
	}
	// Flush per record: the write-ahead property is the whole point.
	return j.w.Flush()
}

// Submit journals an admitted job before it is enqueued.
func (j *Journal) Submit(id string, spec json.RawMessage) error {
	return j.emit(journalRecord{Type: recSubmit, ID: id, Spec: spec, Digest: runlog.Digest(spec)})
}

// Done journals a completed job and its result digest.
func (j *Journal) Done(id, resultDigest string) error {
	return j.emit(journalRecord{Type: recDone, ID: id, Digest: resultDigest})
}

// Failed journals a terminally failed job.
func (j *Journal) Failed(id, msg string) error {
	return j.emit(journalRecord{Type: recFailed, ID: id, Error: msg})
}

// Close flushes and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.w.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ValidateJournal replays a run directory's job journal and returns a
// one-line summary (the check behind `atomicd -checkjournal`). Pending
// jobs are jobs a restarted daemon would re-run; a drained daemon
// leaves zero of them.
func ValidateJournal(dir string) (string, error) {
	path := filepath.Join(dir, journalFile)
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}
	jobs, quarantined, err := replayJournal(path)
	if err != nil {
		return "", err
	}
	var done, failed, pending int
	for _, j := range jobs {
		switch j.State {
		case StateDone:
			done++
		case StateFailed:
			failed++
		default:
			pending++
		}
	}
	s := fmt.Sprintf("journal ok: %d jobs (%d done, %d failed, %d pending)",
		len(jobs), done, failed, pending)
	if len(quarantined) > 0 {
		s += fmt.Sprintf("; %d line(s) quarantined", len(quarantined))
	}
	return s, nil
}
