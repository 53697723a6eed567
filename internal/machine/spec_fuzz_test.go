package machine

import (
	"testing"

	"atomicsmodel/internal/speckit"
)

// FuzzSpecLoad runs speckit.Property over the machine spec loading path
// (the CLIs' -machinefile input), seeded from the registry. A machine
// spec has no thread ladder, so its only point is itself; validity is
// Build, which never returns a machine that fails Machine.Validate.
// Run with `go test -fuzz FuzzSpecLoad ./internal/machine`.
func FuzzSpecLoad(f *testing.F) {
	for _, seed := range speckit.Seeds(registry) {
		f.Add(seed)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"tiny","sockets":1,"coresPerSocket":2,"threadsPerCore":1,"freqGHz":1,` +
		`"topology":{"kind":"ring","params":{"nodes":2}},"nodeMap":{},"latencyCycles":{"l1Hit":1},"energy":{}}`))
	f.Add([]byte(`{"name":"bad","freqGHz":-3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := speckit.Property(data, ParseSpec, func(s *Spec) []*Spec { return []*Spec{s} }); err != nil {
			t.Fatal(err)
		}
	})
}
