package alloc

import "testing"

func TestLargestPlaceableAndFragmentation(t *testing.T) {
	g := NewGrid(4, 4)
	if got := g.LargestPlaceable(); got != 16 {
		t.Fatalf("empty 4x4: largest placeable %d, want 16", got)
	}
	if f := g.Fragmentation(); f != 0 {
		t.Fatalf("empty grid fragmentation %g, want 0", f)
	}

	// Checkerboard the grid: free boards only at (x+y) even. Any two rows
	// share no free columns with a third pattern... here rows 0,2 share
	// columns {0,2} and rows 1,3 share {1,3}, so the largest placement is
	// 2 rows x 2 cols = 4 of 8 free boards.
	for by := 0; by < 4; by++ {
		for bx := 0; bx < 4; bx++ {
			if (bx+by)%2 == 1 {
				g.set(by*g.X+bx, 9) // an opaque owner
			}
		}
	}
	if free := g.FreeBoards(); free != 8 {
		t.Fatalf("checkerboard free %d, want 8", free)
	}
	if got := g.LargestPlaceable(); got != 4 {
		t.Fatalf("checkerboard largest placeable %d, want 4", got)
	}
	if f := g.Fragmentation(); f != 0.5 {
		t.Fatalf("checkerboard fragmentation %g, want 0.5", f)
	}

	// A fully failed grid has no free boards and, by convention, no
	// fragmentation.
	h := NewGrid(2, 2)
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			h.Fail(bx, by)
		}
	}
	if got := h.LargestPlaceable(); got != 0 {
		t.Fatalf("failed grid largest placeable %d, want 0", got)
	}
	if f := h.Fragmentation(); f != 0 {
		t.Fatalf("failed grid fragmentation %g, want 0", f)
	}
}

func TestCopyFromIsIndependent(t *testing.T) {
	g := NewGrid(3, 3)
	if _, ok := g.Allocate(7, 2, 2, Options{}); !ok {
		t.Fatal("2x2 should place on an empty 3x3 grid")
	}
	c := NewGrid(3, 3)
	c.Fail(2, 2)
	c.CopyFrom(g)
	if c.AllocatedBoards() != g.AllocatedBoards() || c.WorkingBoards() != g.WorkingBoards() {
		t.Fatalf("copy mismatch: alloc %d working %d, want alloc %d working %d",
			c.AllocatedBoards(), c.WorkingBoards(), g.AllocatedBoards(), g.WorkingBoards())
	}
	c.Release(7)
	if c.AllocatedBoards() != 0 {
		t.Fatal("release on the copy did not free its boards")
	}
	if g.AllocatedBoards() != 4 {
		t.Fatal("release on the copy mutated the original grid")
	}
	// LargestPlaceable on the mutated copy sees the whole grid again.
	if got := c.LargestPlaceable(); got != 9 {
		t.Fatalf("cleared copy largest placeable %d, want 9", got)
	}
}
