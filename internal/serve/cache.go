package serve

import (
	"bytes"
	"compress/lzw"
	"container/list"
	"fmt"
	"io"
	"sync"
)

// response is one memoized HTTP answer: the status code and the exact
// body bytes that were (and will again be) served for it. Solves are
// pure functions of their canonical query, so replaying the bytes is
// both correct and byte-stable across hits.
type response struct {
	status int
	body   []byte
	// volatile marks a degraded (reduced-accuracy) answer produced
	// under heavy-lane saturation: it is not the canonical result for
	// its key and must never be memoized.
	volatile bool
	// size, when non-zero, marks body as compressed: size is the
	// length of the answer it decompresses back to (see packed).
	size int
}

// Heavy (Monte-Carlo) answers are keyed by their seed, so most are
// never read again, yet each pins its body in the cache until evicted.
// The cache keeps them LZW-compressed: about 25 µs against
// milliseconds of compute, for about a third less memory per entry.
// LZW rather than deflate because a pooled deflate writer holds about
// a megabyte of tables, more than the cache saves; an LZW writer holds
// 64 KiB. Express answers stay verbatim; there the codec would cost as
// much as the answer.
var (
	lzwWriters = sync.Pool{New: func() any { return lzw.NewWriter(nil, lzw.LSB, 8) }}
	lzwReaders = sync.Pool{New: func() any { return lzw.NewReader(nil, lzw.LSB, 8) }}
)

// packed returns the answer as the cache stores a heavy answer:
// compressed when that is smaller, verbatim otherwise.
func (r response) packed() response {
	var buf bytes.Buffer
	w := lzwWriters.Get().(*lzw.Writer)
	w.Reset(&buf, lzw.LSB, 8)
	_, err := w.Write(r.body)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	lzwWriters.Put(w)
	if err != nil || buf.Len() >= len(r.body) {
		return r
	}
	r.size = len(r.body)
	r.body = append(make([]byte, 0, buf.Len()), buf.Bytes()...)
	return r
}

// unpacked restores the exact bytes of a packed answer.
func (r response) unpacked() (response, error) {
	if r.size == 0 {
		return r, nil
	}
	rd := lzwReaders.Get().(*lzw.Reader)
	defer lzwReaders.Put(rd)
	rd.Reset(bytes.NewReader(r.body), lzw.LSB, 8)
	body := make([]byte, r.size)
	if _, err := io.ReadFull(rd, body); err != nil {
		return response{}, fmt.Errorf("serve: decompress cached answer: %w", err)
	}
	r.body, r.size = body, 0
	return r, nil
}

// lru is a concurrency-safe fixed-capacity LRU map from canonical
// request keys to memoized responses.
type lru struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	items    map[string]*list.Element
	evicted  int64 // lifetime count of capacity evictions
}

// lruEntry is the list payload: key is kept for eviction bookkeeping.
type lruEntry struct {
	key string
	val response
}

// newLRU creates a cache holding at most capacity entries (minimum 1).
func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the memoized response for key and marks it most recently
// used.
func (c *lru) get(key string) (response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return response{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *lru) put(key string, val response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evicted++
	}
}

// evictions returns the lifetime eviction count.
func (c *lru) evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// len returns the current entry count.
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
