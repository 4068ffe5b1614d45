package trace

import (
	"cmp"
	"strings"
)

// FindCycle returns one cycle in a dense adjacency list, or nil: an
// iterative DFS from vertex 0 upward in adjacency order, where the first
// back edge u -> v closes the cycle, returned as the path from v's
// successor through u to v. Callers present it through RotateCycle.
func FindCycle(adj [][]int) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(adj))
	parent := make([]int, len(adj))
	for i := range parent {
		parent[i] = -1
	}
	type frame struct{ node, next int }
	for s := range adj {
		if color[s] != white {
			continue
		}
		stack := []frame{{node: s}}
		color[s] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				v := adj[f.node][f.next]
				f.next++
				switch color[v] {
				case white:
					color[v] = gray
					parent[v] = f.node
					stack = append(stack, frame{node: v})
				case gray:
					cyc := []int{v}
					for cur := f.node; cur != v; cur = parent[cur] {
						cyc = append(cyc, cur)
					}
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// RotateCycle returns a copy of cyc rotated so that its least hop by
// (node, peer, prio) comes first: the one presentation of a wait-for
// cycle, independent of where the DFS entered it. hop names a member.
func RotateCycle[T any](cyc []T, hop func(T) (node, peer string, prio int)) []T {
	best := 0
	for i := 1; i < len(cyc); i++ {
		n, p, q := hop(cyc[i])
		bn, bp, bq := hop(cyc[best])
		if cmp.Or(strings.Compare(n, bn), strings.Compare(p, bp), cmp.Compare(q, bq)) < 0 {
			best = i
		}
	}
	out := make([]T, 0, len(cyc))
	out = append(out, cyc[best:]...)
	return append(out, cyc[:best]...)
}
