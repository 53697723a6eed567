package jobs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

// updateIdentities rewrites testdata/identities.txt. Regenerate only to
// add entries (a new preset, a new example); an existing line that
// changes means every cells.jsonl and jobs.jsonl keyed by it is
// orphaned.
var updateIdentities = flag.Bool("update-identities", false, "rewrite testdata/identities.txt")

// identityJobBodies are the job requests whose IDs are pinned: every
// body spec_test.go uses, plus an inline machine, an inline workload,
// an inline app and a fleet job. Invalid bodies pin as "invalid".
var identityJobBodies = []string{
	`{"workloads":["high-faa"],"bogus":1}`,
	`{"workloads":["high-faa"]} {"again":true}`,
	`{"workloadSpec":{"name":"x","nope":1}}`,
	`hello`,
	`{"workloads":["high-faa"],"quick":true}`,
	`{"workloads":["high-faa"],"quick":true,"seed":42}`,
	`{"machines":["XeonE5","KNL"],"workloads":["high-faa"],"quick":true}`,
	`{"machines":["xeone5","knl"],"workloads":["high-faa"],"quick":true}`,
	`{"workloads":["high-faa"],"quick":true,"deadlineMS":5000}`,
	`{"workloads":["high-faa"],"quick":true,"seed":7}`,
	`{"workloads":["high-faa"]}`,
	`{"workloads":["high-faa"],"quick":true,"metrics":true}`,
	`{"workloads":["high-faa"],"quick":true,"check":true}`,
	`{"workloads":["low-faa"],"quick":true}`,
	`{"machines":["KNL"],"workloads":["high-faa"],"quick":true}`,
	`{"workloads":["high-faa"],"quick":true,"fleet":true}`,
	`{"quick":true}`,
	`{"workloads":["nope"]}`,
	`{"machines":["nope"],"workloads":["high-faa"]}`,
	`{"workloads":["high-faa"],"knee":0.5}`,
	`{"workloads":["high-faa"],"fleet":true,"knee":1.5}`,
	`{"workloads":["high-faa"],"deadlineMS":-1}`,
	`{"workloads":["high-faa"],"fleet":true}`,
	`{"machines":["KNL"],"workloadSpec":{"name":"w","pattern":"cas-retry"},"seed":7}`,
	`{"fleet":true,"knee":0.8,"workloads":["high-faa","low-faa"]}`,
	`{}`,
	`[`,
	`{"apps":["treiber"],"quick":true}`,
	`{"apps":["ws-deque"],"quick":true}`,
	`{"workloads":["high-faa"],"apps":["treiber"],"quick":true}`,
	`{"appSpec":{"structure":"counter-faa","threads":4}}`,
	`{"apps":["nope"]}`,
	`{"apps":["treiber"],"fleet":true}`,
	`{"appSpec":{"structure":"counter-faa","threads":4,"stripes":8}}`,
	`{"appSpec":{"structure":"counter-faa","threads":4,"nope":1}}`,
	// Inline machine, workload and app; a fleet job over two machines.
	`{"machineSpec":` + mustReadExample("machines/epyc.json") + `,"workloads":["high-faa"],"quick":true}`,
	`{"machines":["Ideal8"],"workloadSpec":{"primitive":"CAS","mode":"read-write-mix","readFraction":0.9,"threadLadder":[1,2,4]},"seed":3}`,
	`{"machines":["XeonE5"],"appSpec":{"structure":"elimination-stack","threadLadder":[1,2,4],"slots":16},"metrics":true}`,
	`{"machines":["XeonE5","Grace"],"workloads":["high-faa","read-mix"],"fleet":true,"knee":0.8,"quick":true}`,
}

func mustReadExample(rel string) string {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", rel))
	if err != nil {
		panic(err)
	}
	return strings.TrimSpace(string(raw))
}

// identityLines renders every persisted identity the three spec kinds
// and the job layer derive, one "kind<TAB>name<TAB>identity" line each.
func identityLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(kind, name, id string) {
		lines = append(lines, kind+"\t"+name+"\t"+id)
	}

	for _, name := range machine.Names() {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		add("machine", name, m.Key())
	}
	machFiles, _ := filepath.Glob(filepath.Join("..", "..", "examples", "machines", "*.json"))
	sort.Strings(machFiles)
	for _, path := range machFiles {
		m, err := machine.LoadSpecFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add("machine", filepath.ToSlash(path), m.Key())
	}

	type digester interface{ Digest() (string, error) }
	addSpec := func(kind, name string, s digester, points []digester, threads []int) {
		d, err := s.Digest()
		if err != nil {
			t.Fatalf("%s %s: %v", kind, name, err)
		}
		add(kind, name, d)
		for i, pt := range points {
			d, err := pt.Digest()
			if err != nil {
				t.Fatalf("%s %s point %d: %v", kind, name, threads[i], err)
			}
			add(kind, fmt.Sprintf("%s#%d", name, threads[i]), d)
		}
	}
	addWorkload := func(name string, s *workload.Spec) {
		var pts []digester
		var threads []int
		for _, pt := range s.Expand() {
			pts = append(pts, pt)
			threads = append(threads, pt.Threads)
		}
		addSpec("workload", name, s, pts, threads)
	}
	addApp := func(name string, s *apps.Spec) {
		var pts []digester
		var threads []int
		for _, pt := range s.Expand() {
			pts = append(pts, pt)
			threads = append(threads, pt.Threads)
		}
		addSpec("app", name, s, pts, threads)
	}

	for _, name := range workload.SpecNames() {
		s, err := workload.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		addWorkload(name, s)
	}
	wlFiles, _ := filepath.Glob(filepath.Join("..", "..", "examples", "workloads", "*.json"))
	sort.Strings(wlFiles)
	for _, path := range wlFiles {
		s, err := workload.LoadSpecFile(path)
		if err != nil {
			t.Fatal(err)
		}
		addWorkload(filepath.ToSlash(path), s)
	}
	for _, name := range apps.SpecNames() {
		s, err := apps.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		addApp(name, s)
	}
	appFiles, _ := filepath.Glob(filepath.Join("..", "..", "examples", "apps", "*.json"))
	sort.Strings(appFiles)
	for _, path := range appFiles {
		s, err := apps.LoadSpecFile(path)
		if err != nil {
			t.Fatal(err)
		}
		addApp(filepath.ToSlash(path), s)
	}

	for i, body := range identityJobBodies {
		id := "invalid"
		if s, err := ParseSpec([]byte(body)); err == nil {
			if got, err := s.ID(); err == nil {
				id = got
			}
		}
		add("job", fmt.Sprintf("body%02d", i), id)
	}
	return lines
}

// TestPersistedIdentities pins every identity that is written to disk:
// machine keys and spec digests key cells.jsonl, job IDs key
// jobs.jsonl. The pinned file was generated before the spec mechanics
// were shared across kinds, so it also proves that refactor changed no
// identity.
func TestPersistedIdentities(t *testing.T) {
	path := filepath.Join("testdata", "identities.txt")
	got := strings.Join(identityLines(t), "\n") + "\n"
	if *updateIdentities {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(want) != len(have) {
		t.Errorf("%d identities, pinned %d", len(have), len(want))
	}
	for i := 0; i < len(want) && i < len(have); i++ {
		if want[i] != have[i] {
			t.Errorf("identity drifted:\n  pinned %s\n  now    %s", want[i], have[i])
		}
	}
}
