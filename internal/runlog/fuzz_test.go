package runlog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzCacheLoad feeds arbitrary bytes to the cell-cache loader. The
// contract under corruption is quarantine, never crash: OpenCache must
// succeed on any input, and every entry it does serve must carry a
// digest that matches its payload. Run with
// `go test -fuzz FuzzCacheLoad ./internal/runlog`.
func FuzzCacheLoad(f *testing.F) {
	good, _ := json.Marshal(map[string]int{"v": 1})
	f.Add([]byte(""))
	f.Add([]byte(`{"key":"k","digest":"0000000000000000","value":{"v":1}}` + "\n"))
	f.Add([]byte(`{"key":"k","digest":"` + Digest(good) + `","value":` + string(good) + `}` + "\n"))
	f.Add([]byte(`{"key":"k","dig` /* torn */))
	f.Add([]byte("\n\n\x00garbage\n{\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "cells.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatalf("OpenCache failed on corrupt input instead of quarantining: %v", err)
		}
		for _, q := range c.Quarantined() {
			if q.Line <= 0 || q.Reason == "" {
				t.Fatalf("malformed quarantine record: %+v", q)
			}
		}
		// Whatever survived must be internally consistent.
		want := map[string]string{}
		for k, e := range c.entries {
			if Digest(e.Value) != e.Digest {
				t.Fatalf("served entry %q with digest %q over payload hashing to %q", k, e.Digest, Digest(e.Value))
			}
			want[k] = string(e.Value)
		}
		// The open ended the file at a record boundary, so one append
		// and a reopen recover every entry the first open did, plus the
		// appended one.
		if _, err := c.Put("fuzz|appended", json.RawMessage(`{"v":2}`)); err != nil {
			t.Fatal(err)
		}
		want["fuzz|appended"] = `{"v":2}`
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c2, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		if c2.Len() != len(want) {
			t.Fatalf("reopen recovered %d entries, want %d", c2.Len(), len(want))
		}
		for k, v := range want {
			if got, _, ok := c2.Get(k); !ok || string(got) != v {
				t.Fatalf("reopen lost entry %q: got %s, %v; want %s", k, got, ok, v)
			}
		}
	})
}

// FuzzManifestValidate feeds arbitrary bytes to the manifest validator:
// it may reject the input, but must never panic, and anything it calls
// "ok" must really contain a run summary. Run with
// `go test -fuzz FuzzManifestValidate ./internal/runlog`.
func FuzzManifestValidate(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"type":"run","experiments":1}` + "\n"))
	f.Add([]byte(`{"type":"cell","exp":"F3","cell":0}` + "\n" + `{"type":"run"}` + "\n"))
	f.Add([]byte(`{"type":"cell","exp":"F3","ce` /* torn */))
	f.Add([]byte(`{"type":"alien"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		summary, err := Validate(dir)
		if err != nil {
			return // rejection is fine; panics and false "ok"s are not
		}
		if !strings.HasPrefix(summary, "manifest ok:") {
			t.Fatalf("accepted input produced summary %q", summary)
		}
		if !strings.Contains(string(data), `"run"`) {
			t.Fatalf("input without a run summary validated: %q", data)
		}
	})
}
