// spec_sweep: experiments as data. The protection what-if sweep in
// protection_whatif.json — a scenario no canned figure covers —
// runs end to end from its JSON spec: a chips x benchmarks x structures
// FI grid, per-cell FIT, the EPF metric of Fig. 3, and four protection
// configurations (unprotected, parity on the register file, SECDED on
// the register file, SECDED everywhere) evaluated on the measured
// SDC/DUE splits.
//
// The same file also runs through the other surfaces unchanged:
//
//	go run ./examples/spec_sweep [-n 60]
//	go run ./cmd/figures -spec examples/spec_sweep/protection_whatif.json
//	curl -sN -X POST localhost:8080/v1/experiments \
//	     --data-binary @examples/spec_sweep/protection_whatif.json
package main

import (
	"context"
	_ "embed"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiment"
	"repro/internal/report"
)

//go:embed protection_whatif.json
var specJSON []byte

func main() {
	log.SetFlags(0)
	inj := flag.Int("n", 0, "override the spec's injections per cell (0 = as written)")
	flag.Parse()

	spec, err := experiment.ParseBytes(specJSON)
	if err != nil {
		log.Fatal(err)
	}
	if *inj > 0 {
		spec.Injections = *inj
	}

	runner := &experiment.Runner{
		OnCell: func(p experiment.Progress) {
			fmt.Fprintf(os.Stderr, "cell %d/%d %s\n", p.Done, p.Total, p.Spec)
		},
	}
	res, err := runner.Run(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	if err := report.WriteExperiment(os.Stdout, res); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEvery row above came from one JSON file — add a scenario by editing")
	fmt.Println("the spec, not the code; POST the same file to a fiserver to run it there.")
}
