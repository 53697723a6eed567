package jobs

import (
	"encoding/json"
	"fmt"
	"path/filepath"

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
// The journal is a runlog.Log, like the manifest and the cell cache
// beside it: one Write per record, read back by runlog.ReadLog, and
// ended at a record boundary on reopen. It is corruption-tolerant: the
// torn final line of a kill is dropped but reported, and an
// unparseable line, a submit record whose digest no longer matches its
// payload, or a terminal record for an unknown job is quarantined
// (runlog.Quarantine) rather than trusted. The daemon opens the
// journal only under the run directory's writer lock, which New takes
// first with the cell cache, so no second daemon repairs or appends to
// a live one's journal.

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
// for concurrent use; every record is written before the append
// returns, so an admitted job is durable before its client hears 202.
type Journal struct{ log *runlog.Log }

// OpenJournal replays any existing job journal in dir, which must
// exist, and opens it for appending. It returns the recovered jobs in
// first-submission order and the quarantined (corrupt) lines; neither
// is an error.
func OpenJournal(dir string) (*Journal, []*RecoveredJob, []runlog.Quarantine, error) {
	r := &journalReplay{byID: map[string]*RecoveredJob{}}
	log, torn, err := runlog.OpenLog(filepath.Join(dir, journalFile), r.record)
	if err != nil {
		return nil, nil, nil, err
	}
	return &Journal{log}, r.order, r.quarantinedWith(torn), nil
}

// journalReplay folds the journal's records into per-job final states.
type journalReplay struct {
	byID        map[string]*RecoveredJob
	order       []*RecoveredJob
	quarantined []runlog.Quarantine
}

// quarantine sets line n aside as untrusted. It returns nil, so a
// replay step can end with it and the replay goes on.
func (r *journalReplay) quarantine(n int, id, reason string) error {
	r.quarantined = append(r.quarantined, runlog.Quarantine{Line: n, Key: id, Reason: reason})
	return nil
}

// record replays journal line n.
func (r *journalReplay) record(n int, line []byte) error {
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return r.quarantine(n, "", fmt.Sprintf("unparseable record: %v", err))
	}
	switch rec.Type {
	case recSubmit:
		if got := runlog.Digest(rec.Spec); got != rec.Digest {
			return r.quarantine(n, rec.ID, fmt.Sprintf("spec digest mismatch: stored %s, payload hashes to %s", rec.Digest, got))
		}
		spec, err := ParseSpec(rec.Spec)
		if err != nil {
			// Well-formed line, digest intact, but the spec no longer
			// parses (schema drift between versions): quarantine
			// rather than crash the daemon.
			return r.quarantine(n, rec.ID, fmt.Sprintf("journaled spec no longer parses: %v", err))
		}
		if j, ok := r.byID[rec.ID]; ok {
			// Resubmission after a terminal state: the job is pending
			// again, under the resubmitted spec's policy.
			j.Spec, j.Raw = spec, rec.Spec
			j.State, j.ResultDigest, j.Error = StateQueued, "", ""
			return nil
		}
		j := &RecoveredJob{ID: rec.ID, Spec: spec, Raw: rec.Spec, State: StateQueued}
		r.byID[rec.ID] = j
		r.order = append(r.order, j)
	case recDone, recFailed:
		j, ok := r.byID[rec.ID]
		if !ok {
			return r.quarantine(n, rec.ID, "terminal record for a job with no submit record")
		}
		if rec.Type == recDone {
			j.State, j.ResultDigest, j.Error = StateDone, rec.Digest, ""
		} else {
			j.State, j.ResultDigest, j.Error = StateFailed, "", rec.Error
		}
	default:
		return r.quarantine(n, "", fmt.Sprintf("unknown record type %q", rec.Type))
	}
	return nil
}

// quarantinedWith returns the quarantined lines, the torn final line
// (if any) last.
func (r *journalReplay) quarantinedWith(torn int) []runlog.Quarantine {
	if torn > 0 {
		r.quarantine(torn, "", "torn final write (killed daemon)")
	}
	return r.quarantined
}

// Submit journals an admitted job before it is enqueued.
func (j *Journal) Submit(id string, spec json.RawMessage) error {
	return j.log.Append(journalRecord{Type: recSubmit, ID: id, Spec: spec, Digest: runlog.Digest(spec)})
}

// Done journals a completed job and its result digest.
func (j *Journal) Done(id, resultDigest string) error {
	return j.log.Append(journalRecord{Type: recDone, ID: id, Digest: resultDigest})
}

// Failed journals a terminally failed job.
func (j *Journal) Failed(id, msg string) error {
	return j.log.Append(journalRecord{Type: recFailed, ID: id, Error: msg})
}

// Close closes the journal and returns its first failed write.
func (j *Journal) Close() error { return j.log.Close() }

// ValidateJournal replays a run directory's job journal and returns a
// one-line summary (the check behind `atomicd -checkjournal`). Pending
// jobs are jobs a restarted daemon would re-run; a drained daemon
// leaves zero of them.
func ValidateJournal(dir string) (string, error) {
	r := &journalReplay{byID: map[string]*RecoveredJob{}}
	_, torn, err := runlog.ReadLog(filepath.Join(dir, journalFile), r.record)
	if err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}
	jobs, quarantined := r.order, r.quarantinedWith(torn)
	n := map[State]int{} // a replayed job is queued (pending), done or failed
	for _, j := range jobs {
		n[j.State]++
	}
	s := fmt.Sprintf("journal ok: %d jobs (%d done, %d failed, %d pending)",
		len(jobs), n[StateDone], n[StateFailed], n[StateQueued])
	if len(quarantined) > 0 {
		s += fmt.Sprintf("; %d line(s) quarantined", len(quarantined))
	}
	return s, nil
}
