package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// openLoopCASDigests pins the sha256 of the full Result JSON of
// open-loop CAS and CAS2 cells, keyed
// "machine/primitive/threads/interarrival[/metrics]". Open-loop threads
// have several CASes in flight at once, so a completion must not read
// an expected value its thread has since overwritten; these cells pin
// the values their failures and successes leave behind. The digests
// were captured when each open-loop CAS still carried its own closure.
var openLoopCASDigests = map[string]string{
	"XeonE5/CAS/1/200ns":         "ec3820d4a32981fc95d3394ab637382bdba532a039a63436dc766607dbc19dcc",
	"XeonE5/CAS/1/2000ns":        "eca28a273c677afc866f79ea3dbd8b45b2046e0c9f64985aedf90e83980511fe",
	"XeonE5/CAS/4/200ns":         "8010e7fca1e2a75429accc953ffc3e46136dc18f61f678d2a63fd822a6594c79",
	"XeonE5/CAS/4/2000ns":        "dc00ec036120f97c6168a1577eab50baed812223df7e26807dc2efc9c78e1fac",
	"XeonE5/CAS/16/200ns":        "62ca49cf1484e47ba940e731e713610c8d6bf43abc9790479014c31f017644d1",
	"XeonE5/CAS/16/2000ns":       "a71f7e3003ecfba5511ee884dc414806c5f972fea2876f28cf525c5640c22734",
	"XeonE5/CAS2/1/200ns":        "5dfc8adaa3af6fd6dfead985234559787bdeddd0500055be505c4fb16acfd9a2",
	"XeonE5/CAS2/1/2000ns":       "d4cdb12d65864dfe100c19ece8b12a7286a0b881d1dd49e0603a16f0ee7d8785",
	"XeonE5/CAS2/4/200ns":        "cb872a267a40ce545c4db1952d4cb5043b18cb1e8893af259f0f69b591d20a87",
	"XeonE5/CAS2/4/2000ns":       "80965d295cc73bdd51822357854fa3a7e4f456e6cdb7ed7a203fc913be95d4b8",
	"XeonE5/CAS2/16/200ns":       "7f7edc8b943a4924d9ffcf9060ad88c02bd5a9ba108c2d77c0c260778636afae",
	"XeonE5/CAS2/16/2000ns":      "777caa430a1adee74b865b78b56f366ba378437d9c7cf54fe4898687d150c7a7",
	"KNL/CAS/1/200ns":            "6e85d664d4d0008dbd1d94a5ad36fef58efeadbb7125ecb0c22479bd5a3a732a",
	"KNL/CAS/1/2000ns":           "fadcaf69bc3ffe5e7c43af1ed73ffaf2c58a30012c90dc4ae5a07014d83af0f9",
	"KNL/CAS/4/200ns":            "5d95f93a761311840fcfe102950bce8f3564eedddaeacf5aaa63040eb0cb8e77",
	"KNL/CAS/4/2000ns":           "94ea56e7fd57612f2c7730bcc1934392be129a8bfc30ed7ed0a5f98ce8093438",
	"KNL/CAS/16/200ns":           "6243dba1beadfae7284e8778548320c5f209239a07c5d52873b452b872ee492f",
	"KNL/CAS/16/2000ns":          "4c6ba76f3a707e3288da62ccb466d321e0663a8c404a6a61b00ef8a9295be1df",
	"KNL/CAS2/1/200ns":           "32673ccc5500a4a2a6065d7608921336bc45626404dcc794c3b3a48e26eae6f2",
	"KNL/CAS2/1/2000ns":          "2dc9b61209349066f595854a5f4b8aca7088f977d229c2882257742b1417bc8d",
	"KNL/CAS2/4/200ns":           "a5cbf5156cbd4daada94050705804066910bb68ad09b22d91fbaee21d9cebe8a",
	"KNL/CAS2/4/2000ns":          "50d68b3a813c6bc94124c195e6adc3fab022887369aacf439be6a4926d8f3138",
	"KNL/CAS2/16/200ns":          "3c272c4cf89fabf8d6889919c4d30b143513cf111acf2a22f1cced031a322207",
	"KNL/CAS2/16/2000ns":         "2f0ebc1e76477a39ee9f9140cae8ea24b3ad03c8b30df201671871f58fb9471d",
	"XeonE5/CAS/4/200ns/metrics": "3d0a6b7c22809c3dbbee6ac37dccc42143267c710855653a7ee83e58755f00b1",
}

func TestOpenLoopCASDigests(t *testing.T) {
	type cell struct {
		key string
		cfg Config
	}
	var cells []cell
	for _, m := range []*machine.Machine{machine.XeonE5(), machine.KNL()} {
		for _, p := range []atomics.Primitive{atomics.CAS, atomics.CAS2} {
			for _, n := range []int{1, 4, 16} {
				for _, ia := range []sim.Time{200 * sim.Nanosecond, 2 * sim.Microsecond} {
					cells = append(cells, cell{
						key: fmt.Sprintf("%s/%v/%d/%dns", m.Name, p, n, ia/sim.Nanosecond),
						cfg: Config{
							Machine: m, Threads: n, Primitive: p, Mode: HighContention,
							OpenLoop: true, OpenLoopInterarrival: ia,
							Warmup: 5 * sim.Microsecond, Duration: 50 * sim.Microsecond, Seed: 11,
						},
					})
				}
			}
		}
	}
	cells = append(cells, cell{
		key: "XeonE5/CAS/4/200ns/metrics",
		cfg: Config{
			Machine: machine.XeonE5(), Threads: 4, Primitive: atomics.CAS, Mode: HighContention,
			OpenLoop: true, OpenLoopInterarrival: 200 * sim.Nanosecond, Metrics: true,
			Warmup: 5 * sim.Microsecond, Duration: 50 * sim.Microsecond, Seed: 11,
		},
	})
	for _, c := range cells {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		sum := sha256.Sum256([]byte(resultJSON(t, res)))
		got := hex.EncodeToString(sum[:])
		if want, ok := openLoopCASDigests[c.key]; !ok {
			t.Errorf("%s: no pinned digest (got %q)", c.key, got)
		} else if got != want {
			t.Errorf("%s: Result digest %s, pinned %s", c.key, got, want)
		}
	}
}
