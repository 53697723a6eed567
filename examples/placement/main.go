// Placement: show how thread placement changes the cost of a contended
// atomic on the two-socket Xeon — the NUMA effect at the heart of the
// paper's transfer-time model — and that the model predicts it without
// running anything.
//
//	go run ./examples/placement
package main

import (
	"fmt"
	"log"

	"atomicsmodel"
	"atomicsmodel/internal/machine"
)

func main() {
	m := atomicsmodel.XeonE5()
	model := atomicsmodel.NewModel(m)
	placements := []machine.Placement{
		machine.Compact{},               // fill socket 0 first
		machine.Scatter{},               // alternate sockets
		machine.SingleSocket{Socket: 0}, // never leave socket 0
		machine.SMTFirst{},              // share L1s between siblings
	}

	const threads = 8
	fmt.Printf("%s, %d threads on one hot line (FAA)\n\n", m.Name, threads)
	fmt.Printf("%-12s %12s %12s %14s %12s\n",
		"placement", "sim (Mops)", "model (Mops)", "latency (ns)", "xsock/op")
	for _, p := range placements {
		res, err := atomicsmodel.RunWorkload(atomicsmodel.WorkloadConfig{
			Machine: m, Threads: threads, Primitive: atomicsmodel.FAA,
			Mode: atomicsmodel.HighContention, Placement: p,
		})
		if err != nil {
			log.Fatal(err)
		}
		cores, err := machine.PlaceCores(m, p, threads)
		if err != nil {
			log.Fatal(err)
		}
		pred := model.PredictHigh(atomicsmodel.FAA, cores, 0)
		xsock := float64(res.Coh.CrossSocket) / float64(res.Ops)
		fmt.Printf("%-12s %12.2f %12.2f %14.1f %12.2f\n",
			p.Name(), res.ThroughputMops, pred.ThroughputMops,
			res.Latency.Mean().Nanoseconds(), xsock)
	}
	fmt.Println("\nreading: scatter pays the QPI penalty on (almost) every handoff;")
	fmt.Println("keeping contenders on one socket is worth ~2-3x, and the model knows it.")
}
