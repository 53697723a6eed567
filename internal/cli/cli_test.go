package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

// TestAttachRunDirReportsQuarantine corrupts one cached cell of a
// finished run: resuming must name the quarantined line and its key on
// stderr, recompute exactly that cell, and replay the other.
func TestAttachRunDirReportsQuarantine(t *testing.T) {
	dir := t.TempDir()
	m, err := machine.ByName("Ideal8")
	if err != nil {
		t.Fatal(err)
	}
	exp := harness.WorkloadExperiment([]*workload.Spec{{Primitive: "FAA", ThreadLadder: []int{1, 2}}})
	run := func(resume bool) (harness.Options, string) {
		t.Helper()
		var stderr bytes.Buffer
		opts := harness.Options{Machines: []*machine.Machine{m}, Quick: true, Seed: 42, Par: 1}
		if err := AttachRunDir(&opts, dir, resume, "atomicreport", &stderr); err != nil {
			t.Fatal(err)
		}
		if _, err := harness.RunExperiment(exp, opts); err != nil {
			t.Fatal(err)
		}
		return opts, stderr.String()
	}
	closeRun := func(opts harness.Options) {
		t.Helper()
		if err := opts.Cache.Close(); err != nil {
			t.Fatal(err)
		}
		if err := opts.Manifest.Close(); err != nil {
			t.Fatal(err)
		}
	}

	opts, notices := run(false)
	closeRun(opts)
	if notices != "" {
		t.Fatalf("fresh run reported %q", notices)
	}

	// Break the first entry's digest; the line still parses, so the
	// quarantine keeps its key.
	path := filepath.Join(dir, "cells.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d cached cells, want 2", len(lines))
	}
	var entry map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatal(err)
	}
	var key string
	if err := json.Unmarshal(entry["key"], &key); err != nil {
		t.Fatal(err)
	}
	entry["digest"] = json.RawMessage(`"0000000000000000"`)
	broken, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	lines[0] = string(broken)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	opts, notices = run(true)
	defer closeRun(opts)
	want := `atomicreport: quarantined cells.jsonl line 1 (key "` + key + `"): digest mismatch`
	if !strings.Contains(notices, want) || !strings.Contains(notices, "cell will be recomputed") {
		t.Fatalf("resume stderr = %q, want a notice starting %q", notices, want)
	}
	if st := opts.Cache.Stats(); st.Misses != 1 || st.Replayed != 1 {
		t.Fatalf("cache stats %+v: want the quarantined cell recomputed and the other replayed", st)
	}
	if _, _, ok := opts.Cache.Get(key); !ok {
		t.Fatalf("recomputed cell %q is not back in the cache", key)
	}
}

// TestSweepFlags checks the shared block's experiment policy: a
// workload selection replaces the default list, and -fleet defaults
// to the high-faa preset.
func TestSweepFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		ids  string
	}{
		{[]string{"-exp", "F3,F5"}, "F3,F5"},
		{[]string{"-workloads", "high-faa"}, "W"},
		{[]string{"-exp", "F3", "-apps", "treiber"}, "F3,A"},
		{[]string{"-fleet"}, "FLEET"},
		{[]string{"-fleet", "-workloads", "low-faa", "-apps", "treiber"}, "FLEET,A"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		s := SweepFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		opts, exps, err := s.Setup("test", &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		var ids []string
		for _, e := range exps {
			ids = append(ids, e.ID)
		}
		if got := strings.Join(ids, ","); got != c.ids {
			t.Errorf("%v: experiments %s, want %s", c.args, got, c.ids)
		}
		if err := s.Finish(opts); err != nil {
			t.Fatal(err)
		}
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := SweepFlags(fs)
	if err := fs.Parse([]string{"-manifest", "a", "-resume", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Setup("test", &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-manifest with -resume: %v", err)
	}
}
