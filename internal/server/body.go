package server

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"darwin/internal/cache"
)

// This file is the serving fast path's allocation discipline: the static
// body chunk every response is written from (zero copies into per-request
// buffers), a sync.Pool of owned buffers for the few paths that genuinely
// need their own bytes (the upstream client's body reads, loadgen client
// reads), and pre-serialized hot response headers (X-Cache values and
// Content-Length strings for recently served sizes). Together
// they make the hit-serving path — request parse → decider → body written —
// 0 allocs/op above net/http's own internals; the darwinlint hotpath
// analyzer roots Proxy.ServeHTTP and writeBody to keep it that way.

// pattern is the repeated content block served for every object: one static
// read-only 64 KiB slice shared by every response. writeBody slices it,
// never copies it, so body writes allocate nothing per request.
var pattern = func() []byte {
	b := make([]byte, 64<<10)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}()

// writeBody writes size bytes of deterministic content to w as repeated
// Write calls over the shared static chunk — zero copies into per-request
// buffers.
func writeBody(w io.Writer, size int64) error {
	for size > 0 {
		n := int64(len(pattern))
		if size < n {
			n = size
		}
		if _, err := w.Write(pattern[:n]); err != nil {
			return err
		}
		size -= n
	}
	return nil
}

// copyBufSize is the size of pooled owned buffers: one body chunk.
const copyBufSize = 64 << 10

// copyBufPool hands out 64 KiB buffers for paths that must own their bytes:
// the upstream client (validating an origin or peer body, relaying a
// backend's) and the load generator's per-worker body reads. The
// pool is process-wide so an idle proxy holds no per-connection buffers.
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, copyBufSize)
		return &b
	},
}

// getCopyBuf borrows an owned 64 KiB buffer from the pool.
func getCopyBuf() *[]byte { return copyBufPool.Get().(*[]byte) }

// putCopyBuf returns a buffer borrowed with getCopyBuf.
func putCopyBuf(b *[]byte) { copyBufPool.Put(b) }

// Pre-serialized X-Cache header values: shared read-only []string slices
// assigned directly into the response header map, so no per-request value
// slice is allocated. net/http treats header values as read-only.
var (
	xcacheHOC   = []string{"hoc-hit"}
	xcacheDC    = []string{"dc-hit"}
	xcacheMiss  = []string{"miss"}
	xcacheStale = []string{"stale"}
)

// contentTypeOctet is the shared Content-Type value for every body the proxy
// and origin serve. Declaring it explicitly matters beyond the allocation:
// a response without Content-Type makes net/http sniff the first 512 body
// bytes per response (http.DetectContentType showed up in CPU profiles of
// the serving path).
var contentTypeOctet = []string{"application/octet-stream"}

// setContentType stores the shared Content-Type value into h.
func setContentType(h http.Header) {
	h["Content-Type"] = contentTypeOctet
}

// setXCache stores the pre-serialized X-Cache value for res into h.
func setXCache(h http.Header, res cache.Result) {
	switch res {
	case cache.HOCHit:
		h["X-Cache"] = xcacheHOC
	case cache.DCHit:
		h["X-Cache"] = xcacheDC
	default:
		h["X-Cache"] = xcacheMiss
	}
}

// clEntry caches one size's decimal serialization as a ready-to-assign
// header value slice.
type clEntry struct {
	size int64
	val  []string
}

// clCacheSlots sizes the Content-Length cache; must be a power of two.
// Popular objects dominate CDN traffic, so their (fixed, per-object) sizes
// stay resident and repeat serves pay zero serialization allocations.
const clCacheSlots = 2048

// clCache maps recently served sizes to pre-serialized Content-Length
// values. Slots are published atomically; a hash collision simply replaces
// the slot (losing a cached size is always correct, only slower).
var clCache [clCacheSlots]atomic.Pointer[clEntry]

// contentLengthValue returns the shared header value slice for size,
// serializing and caching it on first sight.
func contentLengthValue(size int64) []string {
	slot := &clCache[cache.Mix64(uint64(size))&(clCacheSlots-1)]
	if e := slot.Load(); e != nil && e.size == size {
		return e.val
	}
	e := &clEntry{size: size, val: []string{strconv.FormatInt(size, 10)}}
	slot.Store(e)
	return e.val
}

// setContentLength stores the (cached) pre-serialized Content-Length value
// for size into h.
func setContentLength(h http.Header, size int64) {
	h["Content-Length"] = contentLengthValue(size)
}
