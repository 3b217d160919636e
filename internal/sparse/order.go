package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Fill-reducing orderings for symmetric matrices. A zero-fill incomplete
// factorization (IC(0), SSOR's triangular sweeps) captures more of the true
// factor when the matrix is first permuted so that connected unknowns sit
// close together: the discarded fill shrinks, the preconditioner tightens,
// and PCG needs fewer iterations. The orderings here are computed once per
// sparsity pattern — the natural companion to the symbolic GainPlan — and
// consumed as a symmetric permutation P·A·Pᵀ.
//
// Permutation convention: perm[new] = old, i.e. row new of the permuted
// matrix is row perm[new] of the original. InversePerm flips it.

// RCM computes the reverse Cuthill–McKee ordering of the symmetric sparsity
// pattern of a: breadth-first traversal from a pseudo-peripheral vertex,
// visiting neighbors in ascending-degree order, then reversed. RCM is a
// bandwidth/profile-reducing ordering, which is what zero-fill incomplete
// factorizations want — entries dropped by the fixed pattern lie close to
// the retained band. Disconnected components are ordered one after another.
// Only the pattern of a is read; values are ignored. a must be square and
// structurally symmetric (the gain matrix is).
func RCM(a *CSR) []int {
	n := mustSquare(a, "RCM")
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = offDiagDegree(a, i)
	}
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	// Scratch shared by the component BFS and the pseudo-peripheral search.
	queue := make([]int, 0, n)
	level := make([]int, n)
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		start := pseudoPeripheral(a, root, deg, level, queue[:0])
		// Cuthill–McKee BFS of the component rooted at start.
		head := len(perm)
		perm = append(perm, start)
		visited[start] = true
		for head < len(perm) {
			v := perm[head]
			head++
			frontier := len(perm)
			for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
				w := a.ColIdx[k]
				if w != v && !visited[w] {
					visited[w] = true
					perm = append(perm, w)
				}
			}
			newly := perm[frontier:]
			sort.Slice(newly, func(i, j int) bool {
				if deg[newly[i]] != deg[newly[j]] {
					return deg[newly[i]] < deg[newly[j]]
				}
				return newly[i] < newly[j]
			})
		}
	}
	// Reverse: RCM numbers the BFS order back to front.
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// pseudoPeripheral locates a vertex of near-maximal eccentricity in root's
// component (George & Liu): build the BFS level structure, restart from a
// minimum-degree vertex of the deepest level, and repeat while the
// eccentricity keeps growing.
func pseudoPeripheral(a *CSR, root int, deg, level []int, queue []int) int {
	best, bestEcc := root, -1
	for {
		ecc, last := bfsLevels(a, best, level, queue)
		if ecc <= bestEcc {
			return best
		}
		bestEcc = ecc
		// Minimum-degree vertex of the last level (deterministic tie-break
		// by index: bfsLevels emits the level in ascending discovery order).
		next := last[0]
		for _, v := range last {
			if deg[v] < deg[next] || (deg[v] == deg[next] && v < next) {
				next = v
			}
		}
		best = next
	}
}

// bfsLevels runs a BFS from start, writing per-vertex levels (level is
// fully reused; -1 marks unreached) and returning the eccentricity and the
// vertices of the deepest level. queue is scratch with cap ≥ n.
func bfsLevels(a *CSR, start int, level []int, queue []int) (int, []int) {
	for i := range level {
		level[i] = -1
	}
	queue = append(queue[:0], start)
	level[start] = 0
	ecc := 0
	lastBegin := 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if level[v] > ecc {
			ecc = level[v]
			lastBegin = head
		}
		for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
			w := a.ColIdx[k]
			if w != v && level[w] < 0 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return ecc, queue[lastBegin:]
}

// MinDegree computes a greedy minimum-degree ordering of the symmetric
// sparsity pattern of a: repeatedly eliminate the vertex of smallest degree
// in the elimination graph, turning its neighborhood into a clique. It
// reduces fill directly (where RCM reduces bandwidth) at a higher one-time
// cost — the elimination graph is maintained explicitly as sorted
// adjacency lists, O(n²) in the worst case — which is amortized over every
// numeric refresh of the plan or factor that uses it. Ties break on the
// lower vertex index, keeping the ordering deterministic.
func MinDegree(a *CSR) []int {
	n := mustSquare(a, "MinDegree")
	// Symmetrized off-diagonal pattern, one sorted duplicate-free list per
	// vertex.
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j != i {
				deg[i]++
				deg[j]++
			}
		}
	}
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = make([]int, 0, deg[i])
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j != i {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	for i, l := range adj {
		sort.Ints(l)
		adj[i] = slices.Compact(l)
	}

	perm := make([]int, 0, n)
	eliminated := make([]bool, n)
	var merged []int
	for len(perm) < n {
		v := -1
		for u := 0; u < n; u++ {
			if !eliminated[u] && (v < 0 || len(adj[u]) < len(adj[v])) {
				v = u
			}
		}
		perm = append(perm, v)
		eliminated[v] = true
		// Every neighbor u loses v and gains the rest of v's neighborhood.
		nbrs := adj[v]
		for _, u := range nbrs {
			merged = mergeSkip(merged[:0], adj[u], nbrs, v, u)
			adj[u] = append(adj[u][:0], merged...)
		}
		adj[v] = nil
	}
	return perm
}

// mergeSkip appends the sorted union of the sorted lists a and b to dst,
// leaving out skipA from a and skipB from b. Neither skip value may occur in
// both lists (a neighbor list never holds its own vertex).
func mergeSkip(dst, a, b []int, skipA, skipB int) []int {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var x int
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			x = a[i]
			i++
			if x == skipA {
				continue
			}
		case i == len(a) || b[j] < a[i]:
			x = b[j]
			j++
			if x == skipB {
				continue
			}
		default: // a[i] == b[j]
			x = a[i]
			i++
			j++
		}
		dst = append(dst, x)
	}
	return dst
}

// InversePerm returns the inverse permutation: inv[perm[i]] = i.
func InversePerm(perm []int) []int {
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	return inv
}

// checkPerm validates that perm is a permutation of 0..n-1.
func checkPerm(perm []int, n int, who string) {
	if len(perm) != n {
		panic(fmt.Sprintf("sparse: %s: permutation length %d != %d", who, len(perm), n))
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			panic(fmt.Sprintf("sparse: %s: invalid permutation entry %d", who, p))
		}
		seen[p] = true
	}
}

// PermuteSym returns P·A·Pᵀ as a new CSR matrix: entry (i, j) of the result
// is A(perm[i], perm[j]). The symmetric two-sided permutation preserves
// symmetry and definiteness, so a solve can run entirely in permuted space.
func PermuteSym(a *CSR, perm []int) *CSR {
	n := mustSquare(a, "PermuteSym")
	checkPerm(perm, n, "PermuteSym")
	inv := InversePerm(perm)
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			coo.Add(inv[i], inv[a.ColIdx[k]], a.Val[k])
		}
	}
	return coo.ToCSR()
}

// Bandwidth returns the maximum |i-j| over stored entries — the quantity
// RCM minimizes, exposed for tests and diagnostics.
func Bandwidth(a *CSR) int {
	bw := 0
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d := i - a.ColIdx[k]
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

func mustSquare(a *CSR, who string) int {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: %s requires a square matrix, got %dx%d", who, a.Rows, a.Cols))
	}
	return a.Rows
}

func offDiagDegree(a *CSR, i int) int {
	d := 0
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		if a.ColIdx[k] != i {
			d++
		}
	}
	return d
}
