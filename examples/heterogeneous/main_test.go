package main

// Example runs the four-engine scenario on the virtual clock and pins
// what it prints: every simulated duration is exact, so the output is
// the same on every run and every machine.
func Example() {
	main()
	// Output:
	// cold-starting four heterogeneous engines (this is the slow part the paper eliminates)...
	// init sequence took 200s simulated; every backend is now a host-memory snapshot
	//
	// trtllm     deepseek-r1:1.5b-fp16    swap-in+decode   5.77s (vs cold start: tens of seconds)
	// ollama     deepseek-r1:7b-q4        swap-in+decode   0.99s (vs cold start: tens of seconds)
	// vllm       llama3.2:1b-fp16         swap-in+decode   3.92s (vs cold start: tens of seconds)
	// sglang     llama3.2:3b-fp16         swap-in+decode   6.34s (vs cold start: tens of seconds)
	//
	// final backend states:
	//   deepseek-r1:1.5b-fp16    engine=trtllm   state=swapped-out  swaps=1/2
	//   deepseek-r1:7b-q4        engine=ollama   state=swapped-out  swaps=1/2
	//   llama3.2:1b-fp16         engine=vllm     state=swapped-out  swaps=1/2
	//   llama3.2:3b-fp16         engine=sglang   state=running      swaps=1/1
}
