package lp

// Every allocation a Workspace makes happens in this file, so the
// escape-analysis guard (make escape-check) can require the hot paths in
// workspace.go to allocate nothing.

// fit resizes *buf to length n, with headroom up to half again n when it
// has to allocate (see fitUpTo).
func fit[T any](buf *[]T, n int, shrink bool) {
	fitUpTo(buf, n, shrink, n+n/2)
}

// fitUpTo resizes *buf to length n. It keeps the memory when that is large
// enough, unless shrink is set and n needs less than a quarter of it.
// Otherwise it reallocates (see realloc) with headroom up to half again n,
// but not past limit. The contents are not cleared.
func fitUpTo[T any](buf *[]T, n int, shrink bool, limit int) {
	if b := *buf; n <= cap(b) && !(shrink && 4*n < cap(b)) {
		*buf = b[:n]
		return
	}
	realloc(buf, n, min(n+n/2, max(limit, n)))
}

// realloc replaces *buf by a new buffer of length n and capacity c. It drops
// the old buffer first, so a GC that runs inside the allocation does not
// find both alive. Never inlined: the allocation stays attributed to this
// file in the compiler's escape report.
//
//go:noinline
func realloc[T any](buf *[]T, n, c int) {
	*buf = nil
	*buf = make([]T, n, c)
}

// growKeys returns a copy of dense extended to at least n entries, doubling
// so a slowly rising key range costs amortized O(1) per key.
//
//go:noinline
func growKeys(dense []int32, n int) []int32 {
	if c := min(2*len(dense), maxDenseKey); c > n {
		n = c
	}
	out := make([]int32, n)
	copy(out, dense)
	return out
}

//go:noinline
func newSparseKeys() map[int64]int32 { return make(map[int64]int32) }
