package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"swapservellm/internal/metrics"
	"swapservellm/internal/simclock"
)

// testRegistry builds a registry holding the named server-less nodes;
// membership bookkeeping never touches a node's server.
func testRegistry(ids ...string) *NodeRegistry {
	r := NewNodeRegistry(simclock.NewVirtual(testEpoch), metrics.NewRegistry(), time.Hour, 3)
	for _, id := range ids {
		r.Add(newNode(id, nil, 0))
	}
	return r
}

// TestNodesSortedAndDeduplicated: Nodes lists every member once, by ID,
// whatever order they joined in.
func TestNodesSortedAndDeduplicated(t *testing.T) {
	r := testRegistry("node-c", "node-a", "node-b")
	r.Add(newNode("node-a", nil, 0))
	var got []string
	for _, n := range r.Nodes() {
		got = append(got, n.ID())
	}
	if want := "[node-a node-b node-c]"; fmt.Sprint(got) != want {
		t.Fatalf("Nodes = %v, want %s", got, want)
	}
}

// TestNodesAllocatesNothing: every gateway placement and heartbeat
// sweep ranges over Nodes, so listing the members must not copy them.
func TestNodesAllocatesNothing(t *testing.T) {
	r := testRegistry("node-a", "node-b", "node-c")
	var n int
	allocs := testing.AllocsPerRun(1000, func() { n += len(r.Nodes()) })
	if allocs != 0 {
		t.Fatalf("Nodes allocates %.1f times per call, want 0", allocs)
	}
}

// TestNodesRacesAdd: a slice Nodes handed out stays valid and unchanged
// while members join concurrently (run under -race).
func TestNodesRacesAdd(t *testing.T) {
	r := testRegistry("node-m")
	const adds = 64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			r.Add(newNode(fmt.Sprintf("node-%02d", i), nil, 0))
		}
	}()
	for i := 0; i < adds; i++ {
		nodes := r.Nodes()
		ids := make([]string, len(nodes))
		for j, n := range nodes {
			ids[j] = n.ID()
			if j > 0 && ids[j-1] >= ids[j] {
				t.Fatalf("Nodes not sorted: %s before %s", ids[j-1], ids[j])
			}
		}
		runtime.Gosched()
		for j, n := range nodes {
			if n.ID() != ids[j] {
				t.Fatal("a handed-out Nodes slice changed under a concurrent Add")
			}
		}
	}
	wg.Wait()
	if got := len(r.Nodes()); got != adds+1 {
		t.Fatalf("%d members after %d adds, want %d", got, adds, adds+1)
	}
}
