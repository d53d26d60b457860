package main

// Example runs the elasticity scenario on the virtual clock and pins
// what it prints: every simulated duration is exact, so the output is
// the same on every run and every machine.
func Example() {
	main()
	// Output:
	// snapshot tiers after init (40 GiB host cap):
	//   deepseek-r1:14b-fp16      31.0 GiB on disk
	//   llama3.1:8b-fp16          17.5 GiB on ram
	//   llama3.2:1b-fp16           3.6 GiB on ram
	//
	// first request, 14B (disk tier):  8.62s simulated
	// first request, 8B (RAM tier):    2.61s simulated
	//
	// periodic 1B traffic (every ~20 simulated seconds):
	//   request 1: 0.70s simulated
	//   request 2: 0.01s simulated
	//   request 3: 0.01s simulated
	//   request 4: 0.01s simulated
	//   request 5: 0.01s simulated
	//   request 6: 0.01s simulated
	//
	// idle reaps: 11, prefetch swap-ins: 9
	// (the reaper frees idle backends; the prefetcher hides their swap-in latency)
}
