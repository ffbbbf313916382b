// Package collective implements the collective algorithms of §V-A: two
// edge-disjoint Hamiltonian rings for four-NIC planes (Appendix D, after
// Bae et al.), whose steady-state neighbour exchange the packet engine
// measures (MeasureAllreduceShare), and alpha-beta schedule models of the
// pipelined rings (unidirectional, bidirectional, two rings), the binomial
// tree, the 2D-torus allreduce and the balanced-shift alltoall that
// reproduce the message-size sweeps of Figs. 11, 13 and 17. The 2D-torus
// allreduce is an alpha-beta model only; no packet run simulates it.
package collective

import "fmt"

// Coord is a (row, col) position on an r×c torus.
type Coord struct{ Row, Col int }

// DisjointHamiltonianRings returns two edge-disjoint Hamiltonian cycles on
// an r×c torus, each as a sequence of coordinates (closing edge implied
// from last back to first). The construction follows the existence
// condition of Bae et al. used by the paper (Appendix D): r = c·k with
// gcd(r, c−1) = 1; when instead c = r·k with gcd(c, r−1) = 1 the transposed
// construction is used.
//
// Ring one visits row x1 in column order (x0 − x1) mod c, which chains rows
// through one vertical edge per row boundary; ring two is the traversal of
// the remaining 2-regular subgraph, which under the condition above is a
// single Hamiltonian cycle (verified, and checked at runtime).
func DisjointHamiltonianRings(r, c int) ([]Coord, []Coord, error) {
	if r < 3 || c < 3 {
		// A 2-wide torus has parallel edges; the disjoint-ring construction
		// below assumes simple edges, so require both dimensions ≥ 3.
		return nil, nil, fmt.Errorf("collective: torus %dx%d too small for disjoint rings (need ≥3 per dimension)", r, c)
	}
	if r%c == 0 && gcd(r, c-1) == 1 {
		return disjointRings(r, c)
	}
	if c%r == 0 && gcd(c, r-1) == 1 {
		r1, r2, err := disjointRings(c, r)
		if err != nil {
			return nil, nil, err
		}
		return transpose(r1), transpose(r2), nil
	}
	return nil, nil, fmt.Errorf("collective: no disjoint Hamiltonian rings for %dx%d (need r=c·k with gcd(r,c-1)=1)", r, c)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func transpose(ring []Coord) []Coord {
	out := make([]Coord, len(ring))
	for i, p := range ring {
		out[i] = Coord{Row: p.Col, Col: p.Row}
	}
	return out
}

func disjointRings(r, c int) ([]Coord, []Coord, error) {
	n := r * c
	// Ring one: row-major with per-row column offset −x1 (mod c). Within a
	// row, consecutive nodes are column neighbors; between rows the last
	// node of row x1 and the first of row x1+1 share column (c−1−x1) mod c.
	ring1 := make([]Coord, 0, n)
	for x := 0; x < n; x++ {
		x1, x0 := x/c, x%c
		ring1 = append(ring1, Coord{Row: x1, Col: mod(x0-x1, c)})
	}
	// Collect ring-one edges.
	used := make(map[edge]bool, n)
	for i := 0; i < n; i++ {
		used[normEdge(ring1[i], ring1[(i+1)%n])] = true
	}
	// Remaining 2-regular graph: traverse it from (0,0).
	ring2 := make([]Coord, 0, n)
	visited := make(map[Coord]bool, n)
	at := Coord{0, 0}
	var prev Coord
	havePrev := false
	for len(ring2) < n {
		ring2 = append(ring2, at)
		visited[at] = true
		next, ok := nextFree(at, prev, havePrev, used, visited, r, c)
		if !ok {
			if len(ring2) == n {
				break
			}
			return nil, nil, fmt.Errorf("collective: leftover subgraph of %dx%d is not a single cycle (stuck after %d nodes)", r, c, len(ring2))
		}
		prev, at, havePrev = at, next, true
	}
	// Closing edge of ring two must exist and be unused by ring one.
	if !adjacent(ring2[n-1], ring2[0], r, c) || used[normEdge(ring2[n-1], ring2[0])] {
		return nil, nil, fmt.Errorf("collective: leftover traversal of %dx%d does not close a cycle", r, c)
	}
	return ring1, ring2, nil
}

func mod(a, m int) int { return ((a % m) + m) % m }

type edge struct{ a, b Coord }

func normEdge(p, q Coord) edge {
	if p.Row > q.Row || (p.Row == q.Row && p.Col > q.Col) {
		p, q = q, p
	}
	return edge{p, q}
}

func adjacent(p, q Coord, r, c int) bool {
	dr := mod(p.Row-q.Row, r)
	dc := mod(p.Col-q.Col, c)
	rowNeighbor := dc == 0 && dr != 0 && (dr == 1 || dr == r-1)
	colNeighbor := dr == 0 && dc != 0 && (dc == 1 || dc == c-1)
	return rowNeighbor || colNeighbor
}

// nextFree finds the unvisited torus neighbor of at reachable over an edge
// unused by ring one (allowing return to the start point only implicitly
// through the closing check).
func nextFree(at, prev Coord, havePrev bool, used map[edge]bool, visited map[Coord]bool, r, c int) (Coord, bool) {
	cands := [4]Coord{
		{mod(at.Row+1, r), at.Col},
		{mod(at.Row-1, r), at.Col},
		{at.Row, mod(at.Col+1, c)},
		{at.Row, mod(at.Col-1, c)},
	}
	for _, q := range cands {
		if havePrev && q == prev {
			continue
		}
		if visited[q] {
			continue
		}
		if used[normEdge(at, q)] {
			continue
		}
		return q, true
	}
	return Coord{}, false
}

// VerifyDisjointHamiltonian checks that two rings are Hamiltonian cycles on
// the r×c torus and edge-disjoint; it returns a descriptive error
// otherwise. Exposed for tests and as a safety net for users embedding
// rings on custom shapes.
func VerifyDisjointHamiltonian(ring1, ring2 []Coord, r, c int) error {
	n := r * c
	edges := make(map[edge]int, 2*n)
	for ri, ring := range [][]Coord{ring1, ring2} {
		if len(ring) != n {
			return fmt.Errorf("ring %d has %d nodes, want %d", ri+1, len(ring), n)
		}
		seen := make(map[Coord]bool, n)
		for i, p := range ring {
			if p.Row < 0 || p.Row >= r || p.Col < 0 || p.Col >= c {
				return fmt.Errorf("ring %d node %v out of range", ri+1, p)
			}
			if seen[p] {
				return fmt.Errorf("ring %d visits %v twice", ri+1, p)
			}
			seen[p] = true
			q := ring[(i+1)%n]
			if !adjacent(p, q, r, c) {
				return fmt.Errorf("ring %d: %v and %v not torus neighbors", ri+1, p, q)
			}
			edges[normEdge(p, q)]++
		}
	}
	for e, cnt := range edges {
		if cnt > 1 {
			return fmt.Errorf("edge %v-%v used by both rings", e.a, e.b)
		}
	}
	return nil
}
