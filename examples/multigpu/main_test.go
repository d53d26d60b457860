package main

// Example runs the tensor-parallel scenario on the virtual clock and
// pins what it prints: every simulated duration is exact, so the
// output is the same on every run and every machine.
func Example() {
	main()
	// Output:
	// after init (all snapshotted):
	//   gpu 0:   0.0/ 80.0 GiB used
	//   gpu 1:   0.0/ 80.0 GiB used
	//
	// after per-device backends swapped in:
	//   gpu 0:  17.5/ 80.0 GiB used
	//   gpu 1:  16.1/ 80.0 GiB used
	//
	// 70B tensor-parallel swap-in (incl. preemptions) took 5.61s simulated
	// after the tensor-parallel swap-in:
	//   gpu 0:  53.3/ 80.0 GiB used
	//   gpu 1:  52.0/ 80.0 GiB used
	//   deepseek-r1:7b-fp16    state=running      gpus=[1]
	//   llama3.1:8b-fp16       state=running      gpus=[0]
	//   llama3.3:70b-fp8       state=running      gpus=[0 1]
}
