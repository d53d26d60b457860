// Package simclock is a source stub of the repository's clock
// abstraction, sufficient for type-checking swaplint testdata.
package simclock

import "time"

type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	After(d time.Duration) <-chan time.Time
	Since(t time.Time) time.Duration
}

type Scaled struct{}

func (*Scaled) Now() time.Time                       { return time.Time{} }
func (*Scaled) Sleep(time.Duration)                  {}
func (*Scaled) After(time.Duration) <-chan time.Time { return nil }
func (*Scaled) Since(time.Time) time.Duration        { return 0 }

func NewScaled(origin time.Time, factor float64) *Scaled { return &Scaled{} }

type Virtual struct{}

func (*Virtual) Now() time.Time                       { return time.Time{} }
func (*Virtual) Sleep(time.Duration)                  {}
func (*Virtual) After(time.Duration) <-chan time.Time { return nil }
func (*Virtual) Since(time.Time) time.Duration        { return 0 }

func NewVirtual(origin time.Time) *Virtual { return &Virtual{} }

func (*Virtual) Gate() *Gate { return &Gate{} }

// Gate is the run-token gate of the virtual clock: goroutines Enter it
// to count as runnable and Block/BlockIO/Wait through it so the clock
// only advances when every registered goroutine is quiescent.
type Gate struct{}

func GateFor(clock Clock) *Gate { return &Gate{} }

func (g *Gate) Enter()                                            {}
func (g *Gate) Exit()                                             {}
func (g *Gate) Run(fn func())                                     { fn() }
func (g *Gate) Go(fn func())                                      { go fn() }
func (g *Gate) Block(fn func())                                   { fn() }
func (g *Gate) BlockIO(fn func())                                 { fn() }
func (g *Gate) Wait(d time.Duration, done ...<-chan struct{}) int { return -1 }
func (g *Gate) BlockOn(key any, ready func() bool, fn func())     { fn() }
func (g *Gate) Wake(key any)                                      {}

// Mutex and RWMutex are the clock-aware locks: a contended Lock parks
// through the gate.
type Mutex struct{}

func (m *Mutex) Lock(g *Gate) {}
func (m *Mutex) Unlock()      {}

type RWMutex struct{}

func (m *RWMutex) Lock(g *Gate)  {}
func (m *RWMutex) Unlock()       {}
func (m *RWMutex) RLock(g *Gate) {}
func (m *RWMutex) RUnlock()      {}

func Closed(ch <-chan struct{}) bool { return false }
