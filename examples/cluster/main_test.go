package main

// Example runs the three-node scenario on the virtual clock and pins
// what it prints: every simulated duration is exact, so the output is
// the same on every run and every machine.
func Example() {
	main()
	// Output:
	// starting 3 nodes x 80 GiB serving 12 models (~2x replicated)...
	// gateway up, placement policy locality
	//
	// llama3.1:8b-fp16   TTLT   2.70s  (GPU swaps while out latency phases clien...)
	// llama3.1:8b-fp16   TTLT   0.00s  (GPU swaps while out latency phases clien...)
	// gemma3:27b-fp16    TTLT   8.31s  (GPU swaps while out latency phases clien...)
	//
	// placement: 0/2 warm hits
	//
	// killing node-0 (currently warm for llama3.1:8b-fp16)...
	// request failed over to a replica in 2.70s simulated
	// cross-node retries: 1, failover successes: 1
	//   node node-0   down     load 0, 1 swap-ins
	//   node node-1   healthy  load 0, 0 swap-ins
	//   node node-2   healthy  load 0, 2 swap-ins
}
