package apps

import (
	"testing"

	"atomicsmodel/internal/speckit"
)

// FuzzAppSpecLoad runs speckit.Property over the app spec loading path
// (the CLIs' -appfile input), seeded from the registry. Run with
// `go test -fuzz FuzzAppSpecLoad ./internal/apps`.
func FuzzAppSpecLoad(f *testing.F) {
	for _, seed := range speckit.Seeds(registry) {
		f.Add(seed)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"structure":"counter-faa","threads":4}`))
	f.Add([]byte(`{"structure":"elimination-stack","threadLadder":[1,2,4],"slots":16,"windowPS":400000}`))
	f.Add([]byte(`{"structure":"lock-ttas-backoff","threads":8,"critPS":50000,"backoffBasePS":100000,"backoffMaxPS":3200000}`))
	f.Add([]byte(`{"structure":"rwlock-distributed","threads":16,"readFraction":0.9,"slots":8,"seed":7}`))
	f.Add([]byte(`{"structure":"ws-deque","threads":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := speckit.Property(data, ParseSpec, (*Spec).Expand); err != nil {
			t.Fatal(err)
		}
	})
}
