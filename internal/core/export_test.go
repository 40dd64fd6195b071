package core

// CacheKeys lists c's live keys from most to least recently used, the
// order the mirrored LRU rule must keep identical on both ends.
func CacheKeys(c *TileCache) []uint64 {
	keys := make([]uint64, 0, c.n)
	for i := c.head; i >= 0; i = c.ent[i].next {
		keys = append(keys, c.ent[i].key)
	}
	return keys
}

// Codec2Cache exposes the encoder's key-only mirror of the console cache
// (nil when gen-2 is off).
func Codec2Cache(e *Encoder) *TileCache {
	if e.codec2 == nil {
		return nil
	}
	return e.codec2.cache
}
