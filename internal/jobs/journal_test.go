package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/runlog"
)

// openForTest opens dir's journal and fails the test on error.
func openForTest(t *testing.T, dir string) (*Journal, []*RecoveredJob, []runlog.Quarantine) {
	t.Helper()
	j, jobs, q, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j, jobs, q
}

func specRaw(t *testing.T, body string) json.RawMessage {
	t.Helper()
	s, err := ParseSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openForTest(t, dir)
	raw := specRaw(t, `{"workloads":["high-faa"],"quick":true}`)
	if err := j.Submit("jAAA", raw); err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("jBBB", raw); err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("jCCC", raw); err != nil {
		t.Fatal(err)
	}
	if err := j.Done("jAAA", "cafecafecafecafe"); err != nil {
		t.Fatal(err)
	}
	if err := j.Failed("jBBB", "deadline exceeded"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, jobs, quarantined := openForTest(t, dir)
	defer j2.Close()
	if len(quarantined) != 0 {
		t.Fatalf("clean journal quarantined %d lines: %+v", len(quarantined), quarantined)
	}
	if len(jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(jobs))
	}
	want := map[string]State{"jAAA": StateDone, "jBBB": StateFailed, "jCCC": StateQueued}
	for _, job := range jobs {
		if job.State != want[job.ID] {
			t.Errorf("job %s state = %s, want %s", job.ID, job.State, want[job.ID])
		}
	}
	if jobs[0].ID != "jAAA" || jobs[2].ID != "jCCC" {
		t.Errorf("recovery order %s,%s,%s; want first-submission order", jobs[0].ID, jobs[1].ID, jobs[2].ID)
	}
	if jobs[0].ResultDigest != "cafecafecafecafe" {
		t.Errorf("done job result digest = %q", jobs[0].ResultDigest)
	}
	if jobs[1].Error != "deadline exceeded" {
		t.Errorf("failed job error = %q", jobs[1].Error)
	}
}

func TestJournalResubmitAfterTerminal(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openForTest(t, dir)
	j.Submit("jX", specRaw(t, `{"workloads":["high-faa"],"deadlineMS":1}`))
	j.Failed("jX", "deadline exceeded")
	// Resubmission without the deadline: the job is pending again, and
	// recovery must run it under the resubmitted policy.
	j.Submit("jX", specRaw(t, `{"workloads":["high-faa"]}`))
	j.Close()

	_, jobs, _ := openForTest(t, dir)
	if len(jobs) != 1 || jobs[0].State != StateQueued || jobs[0].Error != "" {
		t.Fatalf("resubmitted job = %+v, want one pending job with no error", jobs[0])
	}
	if jobs[0].Spec.DeadlineMS != 0 {
		t.Fatalf("recovered job deadline = %dms, want the resubmission's (none)", jobs[0].Spec.DeadlineMS)
	}
}

func TestJournalTornFinalWrite(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openForTest(t, dir)
	raw := specRaw(t, `{"workloads":["high-faa"]}`)
	j.Submit("jOK", raw)
	j.Submit("jTORN", raw)
	j.Close()
	if err := faults.TearFinalLine(filepath.Join(dir, journalFile)); err != nil {
		t.Fatal(err)
	}

	j2, jobs, quarantined := openForTest(t, dir)
	defer j2.Close()
	if len(jobs) != 1 || jobs[0].ID != "jOK" {
		t.Fatalf("recovered %d jobs, want just jOK (torn line dropped)", len(jobs))
	}
	if len(quarantined) != 1 || !strings.Contains(quarantined[0].Reason, "torn") {
		t.Fatalf("quarantine = %+v, want one torn-final-write entry", quarantined)
	}
}

// TestJournalSubmitAfterTornTail: a daemon killed mid-submit, then
// restarted, admits jNEW, and crashes again. The reopen must have cut
// the fragment, so the next replay recovers jNEW as well as jOK.
func TestJournalSubmitAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openForTest(t, dir)
	raw := specRaw(t, `{"workloads":["high-faa"]}`)
	j.Submit("jOK", raw)
	j.Submit("jTORN", raw)
	j.Close()
	if err := faults.TearFinalLine(filepath.Join(dir, journalFile)); err != nil {
		t.Fatal(err)
	}
	j2, _, _ := openForTest(t, dir)
	if err := j2.Submit("jNEW", raw); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, jobs, quarantined := openForTest(t, dir)
	defer j3.Close()
	if ids := jobIDs(jobs); len(ids) != 2 || ids[0] != "jOK" || ids[1] != "jNEW" {
		t.Fatalf("recovered %v, want [jOK jNEW]", ids)
	}
	if len(quarantined) != 0 {
		t.Fatalf("second reopen quarantined %+v, want nothing", quarantined)
	}
}

func TestJournalCorruptLineQuarantined(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openForTest(t, dir)
	raw := specRaw(t, `{"workloads":["high-faa"]}`)
	j.Submit("jBAD", raw)
	j.Submit("jGOOD", raw)
	j.Close()
	// A flipped bit mid-payload either breaks the JSON or breaks the
	// spec digest; both must quarantine line 1 and keep line 2.
	if err := faults.FlipPayloadByte(filepath.Join(dir, journalFile), 1); err != nil {
		t.Fatal(err)
	}

	j2, jobs, quarantined := openForTest(t, dir)
	defer j2.Close()
	if len(jobs) != 1 || jobs[0].ID != "jGOOD" {
		t.Fatalf("recovered %v, want just jGOOD", jobIDs(jobs))
	}
	if len(quarantined) != 1 {
		t.Fatalf("quarantined %d lines, want 1: %+v", len(quarantined), quarantined)
	}
}

func TestJournalDigestMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openForTest(t, dir)
	j.Submit("jX", specRaw(t, `{"workloads":["high-faa"]}`))
	j.Close()
	// Rot the stored digest: the record parses fine but carries data
	// the daemon must not trust.
	if err := faults.CorruptDigest(filepath.Join(dir, journalFile), 1); err != nil {
		t.Fatal(err)
	}

	j2, jobs, quarantined := openForTest(t, dir)
	defer j2.Close()
	if len(jobs) != 0 {
		t.Fatalf("recovered %v from a digest-mismatched record", jobIDs(jobs))
	}
	if len(quarantined) != 1 || !strings.Contains(quarantined[0].Reason, "digest mismatch") {
		t.Fatalf("quarantine = %+v, want a digest-mismatch entry", quarantined)
	}
}

func TestJournalOrphanTerminalQuarantined(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openForTest(t, dir)
	j.Submit("jX", specRaw(t, `{"workloads":["high-faa"]}`))
	j.Close()
	if err := faults.InjectOrphanTerminal(filepath.Join(dir, journalFile), "jGHOST"); err != nil {
		t.Fatal(err)
	}

	j2, jobs, quarantined := openForTest(t, dir)
	defer j2.Close()
	if len(jobs) != 1 || jobs[0].ID != "jX" {
		t.Fatalf("recovered %v, want just jX (no job invented from the orphan)", jobIDs(jobs))
	}
	if len(quarantined) != 1 || !strings.Contains(quarantined[0].Reason, "no submit record") {
		t.Fatalf("quarantine = %+v, want a terminal-without-submit entry", quarantined)
	}
}

func TestValidateJournal(t *testing.T) {
	dir := t.TempDir()
	if _, err := ValidateJournal(dir); err == nil {
		t.Fatal("ValidateJournal on an empty dir = nil error, want missing-file error")
	}
	j, _, _ := openForTest(t, dir)
	raw := specRaw(t, `{"workloads":["high-faa"]}`)
	j.Submit("jA", raw)
	j.Done("jA", "cafecafecafecafe")
	j.Submit("jB", raw)
	j.Failed("jB", "boom")
	j.Submit("jC", raw)
	j.Close()

	summary, err := ValidateJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := "journal ok: 3 jobs (1 done, 1 failed, 1 pending)"
	if summary != want {
		t.Fatalf("summary = %q, want %q", summary, want)
	}

	if err := os.WriteFile(filepath.Join(dir, journalFile), append(readFile(t, filepath.Join(dir, journalFile)), []byte("{garbage\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	summary, err = ValidateJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "quarantined") {
		t.Fatalf("summary = %q, want a quarantined count", summary)
	}
}

func jobIDs(jobs []*RecoveredJob) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzJournalReplay feeds arbitrary bytes to the job journal's replay.
// The contract under corruption is quarantine, never crash: OpenJournal
// must succeed on any input; every quarantined line must name a real
// line and a reason; every recovered job must carry a spec that parses,
// a unique ID and a state a restarted daemon can act on; and
// ValidateJournal must count the same jobs. Run with
// `go test -fuzz FuzzJournalReplay ./internal/jobs`.
func FuzzJournalReplay(f *testing.F) {
	raw := []byte(`{"workloads":["high-faa"],"quick":true}`)
	submit := `{"type":"job","id":"jA","spec":` + string(raw) + `,"digest":"` + runlog.Digest(raw) + `"}` + "\n"
	f.Add([]byte(""))
	f.Add([]byte(submit))
	f.Add([]byte(submit + `{"type":"done","id":"jA","digest":"cafecafecafecafe"}` + "\n"))
	f.Add([]byte(submit + `{"type":"failed","id":"jA","error":"deadline"}` + "\n" + submit))
	f.Add([]byte(submit + `{"type":"done","id":"jGHOST"}` + "\n" + `{"type":"alien"}` + "\n"))
	f.Add([]byte(`{"type":"job","id":"jB","spec":{},"digest":"0000000000000000"}` + "\n"))
	f.Add([]byte(submit + `{"type":"job","id":"jT","sp` /* torn */))
	f.Add([]byte("\n\n\x00garbage\n{\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, jobs, quarantined, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("OpenJournal failed on corrupt input instead of quarantining: %v", err)
		}
		lines := bytes.Count(data, []byte{'\n'})
		if len(data) > 0 && data[len(data)-1] != '\n' {
			lines++
		}
		for _, q := range quarantined {
			if q.Line < 1 || q.Line > lines || q.Reason == "" {
				t.Fatalf("malformed quarantine record %+v for %d lines", q, lines)
			}
		}
		seen := map[string]bool{}
		counts := map[State]int{}
		for _, job := range jobs {
			if seen[job.ID] {
				t.Fatalf("job %q recovered twice", job.ID)
			}
			seen[job.ID] = true
			if job.Spec == nil {
				t.Fatalf("job %q recovered without a spec", job.ID)
			}
			if _, err := ParseSpec(job.Raw); err != nil {
				t.Fatalf("job %q recovered with a spec that does not parse: %v", job.ID, err)
			}
			switch job.State {
			case StateQueued, StateDone, StateFailed:
				counts[job.State]++
			default:
				t.Fatalf("job %q recovered in state %q", job.ID, job.State)
			}
		}
		summary, err := ValidateJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("journal ok: %d jobs (%d done, %d failed, %d pending)",
			len(jobs), counts[StateDone], counts[StateFailed], counts[StateQueued])
		if !strings.HasPrefix(summary, want) {
			t.Fatalf("ValidateJournal = %q, want %q", summary, want)
		}

		// The open ended the journal at a record boundary, so one
		// submit and a reopen recover every job the first open did,
		// plus the submitted one.
		recovered := map[string]string{}
		for _, job := range jobs {
			recovered[job.ID] = fmt.Sprintf("%s %s %s %q", job.State, job.Raw, job.ResultDigest, job.Error)
		}
		if err := j.Submit("jAPPENDED", raw); err != nil {
			t.Fatal(err)
		}
		recovered["jAPPENDED"] = fmt.Sprintf("%s %s  %q", StateQueued, raw, "")
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, jobs2, _, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if len(jobs2) != len(recovered) {
			t.Fatalf("reopen recovered %v, want %d jobs", jobIDs(jobs2), len(recovered))
		}
		for _, job := range jobs2 {
			if got := fmt.Sprintf("%s %s %s %q", job.State, job.Raw, job.ResultDigest, job.Error); got != recovered[job.ID] {
				t.Fatalf("reopen recovered job %q as %s, want %s", job.ID, got, recovered[job.ID])
			}
		}
	})
}
