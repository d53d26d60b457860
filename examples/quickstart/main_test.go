package main

// Example runs the quickstart scenario on the virtual clock and pins
// what it prints: every simulated duration is exact, so the output is
// the same on every run and every machine.
func Example() {
	main()
	// Output:
	// initializing backend (cold start + GPU snapshot)...
	// backend state after init: swapped-out (snapshot 3.6 GiB)
	// first request (incl. swap-in) took 0.77s simulated
	// completion: tokens latency is across devices initialization swaps that initialization swaps low to they over high stream high they serves model connections with latency because
	// warm request took 0.03s simulated
	// swap-ins=1 swap-outs=1 state=running
}
