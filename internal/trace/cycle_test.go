package trace

import (
	"reflect"
	"testing"
)

// TestFindCycleOrder pins FindCycle's return order: the simulator's
// detect-and-break recovery flushes the first queue of the cycle, so
// the order is behaviour, not presentation.
func TestFindCycleOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		adj  [][]int
		want []int
	}{
		{"empty", nil, nil},
		{"acyclic", [][]int{{1, 2}, {2}, {}}, nil},
		{"self-loop", [][]int{{}, {1}}, []int{1}},
		{"triangle", [][]int{{1}, {2}, {0}}, []int{1, 2, 0}},
		{"tail into cycle", [][]int{{1}, {2}, {3}, {1}}, []int{2, 3, 1}},
		{"first back edge wins", [][]int{{1, 3}, {0}, {}, {2, 3}}, []int{1, 0}},
	} {
		if got := FindCycle(c.adj); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: FindCycle = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRotateCycle: the least hop by (node, peer, prio) comes first, the
// walk order is kept, and the input is not modified.
func TestRotateCycle(t *testing.T) {
	type hop struct {
		node, peer string
		prio       int
	}
	name := func(h hop) (string, string, int) { return h.node, h.peer, h.prio }
	for _, c := range []struct {
		name string
		in   []hop
		want []hop
	}{
		{"empty", nil, []hop{}},
		{"by node", []hop{{"L3", "S2", 3}, {"S2", "L1", 3}, {"L1", "S1", 3}, {"S1", "L3", 3}},
			[]hop{{"L1", "S1", 3}, {"S1", "L3", 3}, {"L3", "S2", 3}, {"S2", "L1", 3}}},
		{"by peer", []hop{{"A", "C", 1}, {"A", "B", 1}}, []hop{{"A", "B", 1}, {"A", "C", 1}}},
		{"by prio", []hop{{"A", "B", 2}, {"A", "B", 1}}, []hop{{"A", "B", 1}, {"A", "B", 2}}},
		{"already canonical", []hop{{"A", "B", 1}, {"B", "A", 1}}, []hop{{"A", "B", 1}, {"B", "A", 1}}},
	} {
		in := append([]hop(nil), c.in...)
		if got := RotateCycle(c.in, name); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: RotateCycle = %v, want %v", c.name, got, c.want)
		}
		if !reflect.DeepEqual(c.in, in) {
			t.Errorf("%s: input modified to %v", c.name, c.in)
		}
	}
}
