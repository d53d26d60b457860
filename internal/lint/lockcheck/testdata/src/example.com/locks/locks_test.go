package locks

// Test files follow the same conventions as the code they exercise.

func (d *dealer) bumpFromTest() {
	d.bumpLocked() // want `call to d.bumpLocked without holding d's mutex`
}

func leakFromTest(d *dealer) {
	d.mu.Lock() // want `d.mu.Lock\(\) has no matching defer d.mu.Unlock\(\) or later Unlock\(\) in this function`
	d.count++
}

func deadFromTest(d *dealer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Incr() // want `Incr acquires d.mu which is already held here: guaranteed deadlock`
}
