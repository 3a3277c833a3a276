package serve

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestLRUBasics(t *testing.T) {
	c := newLRU(2)
	if _, ok := c.get("a"); ok {
		t.Error("empty cache returned a hit")
	}
	c.put("a", response{status: 200, body: []byte("A")})
	c.put("b", response{status: 200, body: []byte("B")})
	if v, ok := c.get("a"); !ok || string(v.body) != "A" {
		t.Errorf("get a = %v %v", v, ok)
	}
	// "a" is now most recent; inserting "c" evicts "b".
	c.put("c", response{status: 200, body: []byte("C")})
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
}

func TestLRURefreshExistingKey(t *testing.T) {
	c := newLRU(2)
	c.put("a", response{status: 200, body: []byte("v1")})
	c.put("a", response{status: 200, body: []byte("v2")})
	if c.len() != 1 {
		t.Errorf("duplicate put grew the cache: len=%d", c.len())
	}
	if v, _ := c.get("a"); string(v.body) != "v2" {
		t.Errorf("refresh did not replace the value: %q", v.body)
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := newLRU(0) // clamped to 1
	c.put("a", response{})
	c.put("b", response{})
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	// Hammer a small cache from many goroutines; correctness here is
	// "no race, no panic, values never cross keys" (run under -race).
	c := newLRU(8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				if v, ok := c.get(key); ok && string(v.body) != key {
					t.Errorf("key %s returned body %q", key, v.body)
					return
				}
				c.put(key, response{status: 200, body: []byte(key)})
			}
		}(g)
	}
	wg.Wait()
}

// TestPackedRoundTrip pins the heavy-answer storage form: a packed
// answer is smaller and decompresses back to the exact bytes; an
// answer compression cannot shrink is stored verbatim.
func TestPackedRoundTrip(t *testing.T) {
	body := bytes.Repeat([]byte(`{"Mean":5536.895452186056,"StdErr":230.08573368844034},`), 30)
	r := response{status: 200, body: body}
	p := r.packed()
	if p.size != len(body) || len(p.body) >= len(body) {
		t.Fatalf("packed %d bytes into %d (size %d)", len(body), len(p.body), p.size)
	}
	u, err := p.unpacked()
	if err != nil || !bytes.Equal(u.body, body) || u.status != 200 || u.size != 0 {
		t.Fatalf("round trip: err %v, status %d, equal %v", err, u.status, bytes.Equal(u.body, body))
	}
	tiny := response{status: 200, body: []byte("{}")}
	if p := tiny.packed(); p.size != 0 || !bytes.Equal(p.body, tiny.body) {
		t.Errorf("incompressible answer was packed: %+v", p)
	}
	if _, err := (response{body: []byte{0xff, 0xff, 0xff, 0xff}, size: 40}).unpacked(); err == nil {
		t.Error("corrupt packed answer decompressed without error")
	}
}
