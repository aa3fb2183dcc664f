package a

import (
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/kbase"
)

func leak(c *bufcache.Cache) byte {
	bh, err := c.GetBlk(1) // want `buffer bh is acquired here but never released`
	if err != kbase.EOK {
		return 0
	}
	return bh.Data[0]
}

func balanced(c *bufcache.Cache) byte {
	bh, err := c.Bread(1)
	if err != kbase.EOK {
		return 0
	}
	defer bh.Put()
	return bh.Data[0]
}

func deferAndPlain(c *bufcache.Cache) {
	bh, err := c.GetBlk(2)
	if err != kbase.EOK {
		return
	}
	defer bh.Put()
	bh.MarkDirty()
	bh.Put() // want `buffer bh has both a deferred Put and a plain Put`
}

func doublePut(c *bufcache.Cache) {
	bh, _ := c.Bread(3)
	bh.MarkDirty()
	bh.Put()
	bh.Put() // want `buffer bh is released twice on this path`
}

// Put-and-return on the error branch plus Put on the main path is the
// correct single-release-per-path shape.
func errorPathPut(c *bufcache.Cache) kbase.Errno {
	bh, err := c.Bread(4)
	if err != kbase.EOK {
		return err
	}
	if !bh.Uptodate() {
		bh.Put()
		return kbase.EIO
	}
	bh.Put()
	return kbase.EOK
}

// Ownership transfers exempt the variable from balance checking.

func transfersOwnership(c *bufcache.Cache) *bufcache.BufferHead {
	bh, _ := c.GetBlk(5)
	return bh
}

func handsOff(c *bufcache.Cache, sink func(*bufcache.BufferHead)) {
	bh, _ := c.GetBlk(6)
	sink(bh)
}
