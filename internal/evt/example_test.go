package evt_test

import (
	"fmt"

	"repro/internal/evt"
)

// Querying a fitted Gumbel directly.
func ExampleGumbel() {
	g := evt.Gumbel{Mu: 1000, Beta: 50}
	x, _ := g.QuantileSF(1e-9)
	fmt.Printf("exceeded with p=1e-9 at %.0f cycles\n", x)
	// Output:
	// exceeded with p=1e-9 at 2036 cycles
}
