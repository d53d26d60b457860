package main

// Example runs the §3.4 walkthrough on the virtual clock and pins what
// it prints: every simulated duration is exact, so the output is the
// same on every run and every machine.
func Example() {
	main()
	// Output:
	// initializing 6 backends sequentially...
	//
	// after init (all snapshotted):
	//   deepseek-coder:6.7b-fp16   swapped-out  gpu=  0.0GiB swaps=0/1
	//   deepseek-r1:7b-q8          swapped-out  gpu=  0.0GiB swaps=0/1
	//   gemma:7b-fp16              swapped-out  gpu=  0.0GiB swaps=0/1
	//   llama3.2:1b-fp16           swapped-out  gpu=  0.0GiB swaps=0/1
	//   llama3.2:3b-fp16           swapped-out  gpu=  0.0GiB swaps=0/1
	//   llama3.3:70b-fp8           swapped-out  gpu=  0.0GiB swaps=0/1
	//
	// after concurrent Gemma + DeepSeek-Coder requests:
	//   deepseek-coder:6.7b-fp16   running      gpu= 18.0GiB swaps=1/1
	//   deepseek-r1:7b-q8          swapped-out  gpu=  0.0GiB swaps=0/1
	//   gemma:7b-fp16              running      gpu= 20.9GiB swaps=1/1
	//   llama3.2:1b-fp16           swapped-out  gpu=  0.0GiB swaps=0/1
	//   llama3.2:3b-fp16           swapped-out  gpu=  0.0GiB swaps=0/1
	//   llama3.3:70b-fp8           swapped-out  gpu=  0.0GiB swaps=0/1
	//
	// after the 70B request (both preempted):
	//   deepseek-coder:6.7b-fp16   swapped-out  gpu=  0.0GiB swaps=1/2
	//   deepseek-r1:7b-q8          swapped-out  gpu=  0.0GiB swaps=0/1
	//   gemma:7b-fp16              swapped-out  gpu=  0.0GiB swaps=1/2
	//   llama3.2:1b-fp16           swapped-out  gpu=  0.0GiB swaps=0/1
	//   llama3.2:3b-fp16           swapped-out  gpu=  0.0GiB swaps=0/1
	//   llama3.3:70b-fp8           running      gpu= 71.8GiB swaps=1/1
	//
	// after the bursty tail:
	//   deepseek-coder:6.7b-fp16   running      gpu= 18.0GiB swaps=2/2
	//   deepseek-r1:7b-q8          swapped-out  gpu=  0.0GiB swaps=0/1
	//   gemma:7b-fp16              running      gpu= 20.9GiB swaps=2/2
	//   llama3.2:1b-fp16           running      gpu=  3.6GiB swaps=1/1
	//   llama3.2:3b-fp16           running      gpu=  8.0GiB swaps=1/1
	//   llama3.3:70b-fp8           swapped-out  gpu=  0.0GiB swaps=1/2
	//
	// total hot swap-ins across the run: 7 (zero cold starts after init)
}
