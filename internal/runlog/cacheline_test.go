package runlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// TestPutLineMatchesMarshal pins Put's hand-built cache line to the
// bytes json.Marshal writes for the same entry: keys that need
// escaping (HTML-unsafe runes, quotes, backslashes, non-ASCII and
// invalid UTF-8) and values json.Marshal would compact, escape or
// reject included. The file holds exactly those lines.
func TestPutLineMatchesMarshal(t *testing.T) {
	keys := []string{
		"F3|seed=42|quick=true|XeonE5@dc7517926042/wl@e3eb36d03610",
		"a<b>&c", `q"uote`, `back\slash`, "ünï→code", "line\u2028sep\u2029", "bad\xffutf8", "tab\there", "",
	}
	values := []json.RawMessage{
		[]byte(`{"Ops":1,"Name":"a b","Esc":"\"\\","U":"é"}`),
		[]byte(`[1,2,{"x":null}]`), []byte(`"s"`), []byte(`0`), []byte(`null`),
		[]byte(`{"a": 1}`), []byte(` {"a":1}`), []byte("{\"a\":1}\n"),
		[]byte(`{"h":"<b>"}`), []byte(`{"amp":"&"}`), []byte("\"\u2028\u2029\""),
		[]byte(`{"a":`), []byte(`{"a":1}{}`), {}, nil,
	}
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i, k := range keys {
		for j, v := range values {
			key := fmt.Sprintf("%s#%d", k, j)
			e := cacheEntry{Key: key, Digest: Digest(v), Value: v}
			wantLine, wantErr := json.Marshal(e)
			got, err := e.line()
			if (err != nil) != (wantErr != nil) || !bytes.Equal(got, wantLine) {
				t.Fatalf("key %d value %d: line() = %s, %v; json.Marshal = %s, %v", i, j, got, err, wantLine, wantErr)
			}
			if _, err := c.Put(key, e.Value); (err != nil) != (wantErr != nil) {
				t.Fatalf("key %d value %d: Put error %v, json.Marshal error %v", i, j, err, wantErr)
			}
			if wantErr == nil {
				want.Write(wantLine)
				want.WriteByte('\n')
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readBytes(t, filepath.Join(dir, cacheFile)); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("cells.jsonl differs from json.Marshal's lines:\n got %s\nwant %s", got, want.Bytes())
	}
}

// TestCellLineMatchesMarshal pins the manifest's hand-written cell
// record to the bytes json.Marshal writes for it: failed cells with
// error text, panic stacks, watchdog timeouts and cancellations,
// replayed and fresh cells, strings that need escaping, floats at the
// edges of encoding/json's 'f' and 'e' forms, and NaN and ±Inf, which
// both reject with the same error. The manifest holds exactly those
// lines.
func TestCellLineMatchesMarshal(t *testing.T) {
	recs := []CellRecord{
		{Exp: "F3", Cell: 0, Key: "F3|seed=42|quick=true|XeonE5@dc7517926042/wl@e3eb36d03610",
			Digest: "0123456789abcdef", WallMS: 1.25, SimNS: 200000, Ops: 91234},
		{Exp: "F3", Cell: 7, Key: "k", Digest: "d", Cached: true, WallMS: 0.0031},
		{Exp: "T1", Cell: 2, Key: "k", WallMS: 3, Error: "cell 2 panicked: <nil> & \"boom\"", Panic: true,
			Stack: "goroutine 7 [running]:\nmain.f()\n\t/src/x.go:12 +0x1d\n"},
		{Exp: "F5", Cell: 3, Key: "k", WallMS: 1e21, Error: "cell 3 exceeded its 1ns watchdog deadline", TimedOut: true},
		{Exp: "F5", Cell: 4, Key: "k", WallMS: 1e-7, Error: "cell 4 canceled before it ran: context canceled", Canceled: true},
		{Exp: "ünï\u2028", Cell: -1, Key: "bad\xffutf8\ttab", WallMS: -0.5, SimNS: 5e-324, Ops: math.MaxUint64},
		{Exp: "F1", WallMS: 9.999999999999999e20, SimNS: -1e-6},
		{},
		{Exp: "F1", WallMS: math.NaN()},
		{Exp: "F1", WallMS: 1, SimNS: math.Inf(-1)},
	}
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i, r := range recs {
		r.Type = TypeCell
		wantLine, wantErr := json.Marshal(r)
		got, err := r.line()
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) || !bytes.Equal(got, wantLine) {
			t.Fatalf("record %d: line() = %s, %v; json.Marshal = %s, %v", i, got, err, wantLine, wantErr)
		}
		if err := w.Cell(r); (err != nil) != (wantErr != nil) {
			t.Fatalf("record %d: Cell error %v, json.Marshal error %v", i, err, wantErr)
		}
		if wantErr == nil {
			want.Write(wantLine)
			want.WriteByte('\n')
		}
	}
	if cells, _, failed := w.Totals(); cells != len(recs) || failed != 3 {
		t.Fatalf("Totals = %d cells, %d failed; want %d, 3", cells, failed, len(recs))
	}
	got := readBytes(t, filepath.Join(dir, manifestFile))
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("manifest differs from json.Marshal's lines:\n got %s\nwant %s", got, want.Bytes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// referenceReplay is the cache's replay with json.Unmarshal alone, the
// decode the one-pass reader must agree with.
func (c *Cache) referenceReplay(n int, line []byte) error {
	var e cacheEntry
	if err := json.Unmarshal(line, &e); err != nil {
		c.quarantined = append(c.quarantined, Quarantine{Line: n, Reason: fmt.Sprintf("unparseable entry: %v", err)})
	} else if got := Digest(e.Value); got != e.Digest {
		c.quarantined = append(c.quarantined, Quarantine{Line: n, Key: e.Key,
			Reason: fmt.Sprintf("digest mismatch: stored %s, payload hashes to %s", e.Digest, got)})
	} else {
		e.fromDisk = true
		c.entries[e.Key] = e
	}
	return nil
}

// FuzzCacheLine holds both directions of the cache line codec to
// encoding/json. Replaying arbitrary lines keeps the same entries and
// quarantines the same lines, with the same reasons, as a replay
// through json.Unmarshal alone, and a line the one-pass reader accepts
// decodes to the entry json.Unmarshal gives. Encoding an entry with the
// input as key and value gives json.Marshal's bytes, or fails where it
// fails. Run with `go test -fuzz FuzzCacheLine ./internal/runlog`.
func FuzzCacheLine(f *testing.F) {
	good := `{"v":1}`
	f.Add([]byte(`{"key":"k","digest":"` + Digest([]byte(good)) + `","value":` + good + `}`))
	f.Add([]byte(`{"key":"k","digest":"0000000000000000","value":{"v":1}}`))
	f.Add([]byte(`{"key":"k","digest":"` + Digest([]byte("null")) + `","value":null}`))
	f.Add([]byte(`{"key":"k<","digest":"d","value":1}`))
	f.Add([]byte(`{"key":"k","digest":"d","value": 1}`))
	f.Add([]byte(`{"key":"k","digest":"d","value":1 }`))
	f.Add([]byte(`{"key":"k","digest":"d","value":1} `))
	f.Add([]byte(`{"key":"k","digest":"d","value":1}}`))
	f.Add([]byte(`{"digest":"d","key":"k","value":1}`))
	f.Add([]byte(`{"key":"k","digest":"d","value":1,"key":"j"}`))
	f.Add([]byte(`{"key":"k","dig`))
	f.Add([]byte("{\"key\":\"\xff\",\"digest\":\"d\",\"value\":1}\n\x00garbage\n{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := &Cache{entries: map[string]cacheEntry{}}
		ref := &Cache{entries: map[string]cacheEntry{}}
		for n, line := range bytes.Split(data, []byte{'\n'}) {
			if e, ok := canonicalEntry(line); ok {
				var want cacheEntry
				if err := json.Unmarshal(line, &want); err != nil || !reflect.DeepEqual(e, want) {
					t.Fatalf("line %q: one-pass entry %+v, json.Unmarshal %+v, %v", line, e, want, err)
				}
			}
			fast.replay(n+1, line)
			ref.referenceReplay(n+1, line)
		}
		if !reflect.DeepEqual(fast.entries, ref.entries) {
			t.Fatalf("entries differ:\none-pass  %+v\nreference %+v", fast.entries, ref.entries)
		}
		if !reflect.DeepEqual(fast.quarantined, ref.quarantined) {
			t.Fatalf("quarantine differs:\none-pass  %+v\nreference %+v", fast.quarantined, ref.quarantined)
		}

		e := cacheEntry{Key: string(data), Digest: Digest(data), Value: data}
		got, err := e.line()
		want, wantErr := json.Marshal(e)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("line() = %s, %v; json.Marshal = %s, %v", got, err, want, wantErr)
		}
	})
}

// f3Value is a cell result the size and shape of a full F3 cell's on
// XeonE5 (about 770 bytes), distinct for each i.
func f3Value(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"Ops":%d,"Attempts":12550,"Failures":11505,`+
		`"PerThreadOps":[0,0,0,0,0,0,0,0,0,0,0,%d],`+
		`"Latency":{"n":12550,"sum":4800174200,"min":382484,"max":382484,"buckets":{"147":12550}},`+
		`"SuccessLatency":{"n":%d,"sum":399695780,"min":382484,"max":382484,"buckets":{"147":%d}},`+
		`"MeasuredFor":400000000,"ThroughputMops":2.6125,"Jain":0.08333333333333333,"CoV":3.3166247903554003,"MinMax":0,`+
		`"Energy":{"StaticJ":0.007200000000000001,"ActiveJ":0.008640000000000002,"DynamicJ":0.000060865,`+
		`"TotalJ":0.015900865000000004,"PerOpNJ":15216.138755980865,"AvgPowerW":39.752162500000004},`+
		`"Coh":{"Accesses":12550,"LocalHits":0,"RemoteXfers":12550,"LLCFills":0,"DRAMFills":0,"Invals":0,`+
		`"TotalHops":161048,"CrossSocket":0,"MaxQueueLen":12,"LinkStall":0}}`, i, i, i, i))
}

// f3Key is a full F3 cell key on XeonE5, distinct for each i.
func f3Key(i int) string {
	return fmt.Sprintf("F3|seed=42|quick=false|XeonE5@dc7517926042/wl@%012x", i)
}

// BenchmarkCacheOpen times loading a cells.jsonl of 100 F3-sized
// entries: reading the file and replaying every line through the parse
// and the digest check. It opens read-only, so no lock or append
// stream is timed.
func BenchmarkCacheOpen(b *testing.B) {
	dir := b.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Put(f3Key(i), f3Value(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := OpenCacheReadOnly(dir)
		if err != nil {
			b.Fatal(err)
		}
		if c.Len() != 100 || len(c.Quarantined()) != 0 {
			b.Fatalf("loaded %d entries, quarantined %d", c.Len(), len(c.Quarantined()))
		}
	}
}

// BenchmarkCachePut times storing one F3-sized cell result: its
// digest, its cache line and the append to cells.jsonl.
func BenchmarkCachePut(b *testing.B) {
	c, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, 100)
	values := make([]json.RawMessage, 100)
	for i := range keys {
		keys[i], values[i] = f3Key(i), f3Value(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Put(keys[i%100], values[i%100]); err != nil {
			b.Fatal(err)
		}
	}
}
