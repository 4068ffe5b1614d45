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
