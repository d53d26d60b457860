package proxy

import (
	"container/list"
	"strconv"
	"sync"
)

// cache is the IR-keyed response cache: a bounded LRU over canonical
// (upstream-encoded) request bodies. Keying on the canonical encoding
// rather than the client wire bytes means an Ollama /api/chat request
// and an OpenAI /v1/chat/completions request asking the same question
// share one entry. Each model carries a revision counter; bumping it
// (model weights replaced, operator invalidation) changes every key
// for that model, so a cached response is never served across model
// revisions.
type cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	revs    map[string]uint64
}

// cacheEntry is one stored response.
type cacheEntry struct {
	key  string
	body []byte
}

// newCache builds a cache bounded to max entries (max <= 0 disables).
func newCache(max int) *cache {
	if max <= 0 {
		return nil
	}
	return &cache{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		revs:    make(map[string]uint64),
	}
}

// key derives the cache key for one request: endpoint-family-scoped,
// model-revision-scoped, content-addressed by the canonical body's
// FNV-1a hash — "<upstream>|<model>|r<rev>|<16 hex digits>".
func (c *cache) key(upstream, model string, canonical []byte) string {
	c.mu.Lock()
	rev := c.revs[model]
	c.mu.Unlock()
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for _, b := range canonical {
		h = (h ^ uint64(b)) * 1099511628211
	}
	var buf [128]byte
	k := append(append(append(append(buf[:0], upstream...), '|'), model...), "|r"...)
	k = append(strconv.AppendUint(k, rev, 10), '|')
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		k = append(k, hex[h>>shift&0xf])
	}
	return string(k)
}

// get returns the cached response for key, refreshing its recency.
func (c *cache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores a response under key, evicting the least recently used
// entry when full.
func (c *cache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
}

// bumpRevision advances a model's revision, invalidating every cached
// response for it, and returns the new revision.
func (c *cache) bumpRevision(model string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.revs[model]++
	return c.revs[model]
}

// revision returns a model's current revision.
func (c *cache) revision(model string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.revs[model]
}

// len returns the live entry count.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
