package workload

import (
	"testing"

	"atomicsmodel/internal/speckit"
)

// FuzzWorkloadSpecLoad runs speckit.Property over the workload spec
// loading path (the CLIs' -workloadfile input), seeded from the
// registry. Run with `go test -fuzz FuzzWorkloadSpecLoad ./internal/workload`.
func FuzzWorkloadSpecLoad(f *testing.F) {
	for _, seed := range speckit.Seeds(registry) {
		f.Add(seed)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"primitive":"FAA","threads":4}`))
	f.Add([]byte(`{"primitive":"CAS","mode":"read-write-mix","readFraction":0.9,"threadLadder":[1,2,4]}`))
	f.Add([]byte(`{"primitive":"FAA","threads":4,"arbiter":"locality","arbiterSkips":64,"seed":7}`))
	f.Add([]byte(`{"primitive":"FAA","threads":4,"openLoop":true,"openLoopInterarrivalPS":123456}`))
	f.Add([]byte(`{"primitive":"FAA","threads":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := speckit.Property(data, ParseSpec, (*Spec).Expand); err != nil {
			t.Fatal(err)
		}
	})
}
