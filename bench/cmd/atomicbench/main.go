// Command atomicbench is the repository's end-to-end benchmark driver;
// see bench/README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload f3-xeon --seed 42 --seconds 15 --trace 0
//	cd bench && go run ./cmd/atomicbench -root .. -workload all
package main

import (
	"os"

	"atomicsmodel/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
