package harness

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/workload"
)

// TestQuickCacheDecodesBothWays decodes every workload and app result
// a -quick run of the whole suite on the paper's two machines caches,
// both the way a resume does (decodeResult, which calls the hand codec
// directly) and through encoding/json's generic decode of the same
// fields, and requires equal values.
func TestQuickCacheDecodesBothWays(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole -quick suite")
	}
	dir := t.TempDir()
	c, err := runlog.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Machines: []*machine.Machine{machine.XeonE5(), machine.KNL()}, Quick: true, Seed: 1, Cache: c}
	renderAllManifest(t, o, IDs())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var wl, app int
	_, _, err = runlog.ReadLog(filepath.Join(dir, "cells.jsonl"), func(n int, line []byte) error {
		var e struct {
			Key   string          `json:"key"`
			Value json.RawMessage `json:"value"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		switch {
		case strings.Contains(e.Key, "/wl@"):
			wl++
			decodeBothWays[workload.Result](t, e.Key, e.Value)
		case strings.Contains(e.Key, "/app@"):
			app++
			decodeBothWays[apps.RunResult](t, e.Key, e.Value)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if wl == 0 || app == 0 {
		t.Fatalf("the cache holds %d workload and %d app results; want both", wl, app)
	}
}

// decodeBothWays decodes raw into a *T as a resume does, and into a
// value of an unnamed struct type with T's fields, which encoding/json
// decodes generically since it has no methods, and requires the two to
// be equal.
func decodeBothWays[T any](t *testing.T, key string, raw []byte) {
	t.Helper()
	hand, err := decodeResult[*T](raw)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	typ := reflect.TypeOf(*hand)
	fields := make([]reflect.StructField, typ.NumField())
	for i := range fields {
		fields[i] = typ.Field(i)
	}
	gen := reflect.New(reflect.StructOf(fields))
	if err := json.Unmarshal(raw, gen.Interface()); err != nil {
		t.Fatalf("%s: generic decode: %v", key, err)
	}
	if got := gen.Elem().Convert(typ).Interface(); !reflect.DeepEqual(*hand, got) {
		t.Fatalf("%s: decodes differ:\n  hand %+v\n   gen %+v", key, *hand, got)
	}
}
