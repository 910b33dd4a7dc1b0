package storage

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"unmasque/internal/sqldb"
)

// ProbeCache is the durable, cross-job tier of the run-memoization
// cache: a single append-only log mapping (namespace, fingerprint)
// keys to completed application-execution outcomes — result columns
// and rows, or a deterministic application error. It survives daemon
// restarts and is shared across jobs and tenants; the namespace keeps
// different executables from ever seeing each other's entries even
// when their database fingerprints collide (same instance, different
// app ⇒ different E output).
//
// Record framing is [u32 len][u32 crc][payload] (tail.go), recovered
// through RecoverTail, so a crash mid-append costs at most the record
// being written. Payload:
//
//	[32]  key = sha256(namespace ‖ 0x00 ‖ fingerprint)
//	[u8]  error kind (0 none, 1 sqldb.ErrNoSuchTable, 2 app error)
//	[u32] error message length, message bytes
//	[u8]  has-result flag
//	when set: [u8 aggEmptyInput] [u16 ncols] (len-prefixed column
//	names) [u32 nrows] row records (codec.go)
//
// Timeouts and context cancellations are never handed to Put by the
// scheduler (they are environmental, not properties of (E, D)), so
// every record is a deterministic outcome safe to replay forever.
//
// In memory the cache keeps each record as its encoded bytes, which
// hold no pointers for the garbage collector to trace; Get decodes a
// private result per call.
type ProbeCache struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	mem    map[cacheKey][]byte // key -> record body (the payload after the key)
	writes int64
	closed bool
	err    error // sticky append error: cache degrades to read-only
}

type cacheKey [sha256.Size]byte

const (
	errKindNone        = 0
	errKindNoSuchTable = 1
	errKindApp         = 2
)

// maxCachePayload bounds one record: keep it generous (a full result
// over a large instance) but finite so a corrupt length field cannot
// OOM recovery.
const maxCachePayload = 1 << 28 // 256 MiB

// maxCacheU16 is the largest column count, column-name length and row
// width the record format can hold.
const maxCacheU16 = math.MaxUint16

// OpenProbeCache opens (creating if needed) the cache log at path,
// truncating any torn tail and loading all intact records. Every
// record's structure is checked, so a record that would not decode is
// truncated as torn here rather than failing a later Get.
func OpenProbeCache(path string) (*ProbeCache, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: open probe cache: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open probe cache: %w", err)
	}
	pc := &ProbeCache{f: f, path: path, mem: make(map[cacheKey][]byte)}
	if _, _, err := RecoverTail(f, func(r *bufio.Reader) (int64, error) {
		payload, n, err := readFrame(r, maxCachePayload)
		if err != nil {
			return 0, err
		}
		if len(payload) < sha256.Size {
			return 0, fmt.Errorf("storage: short cache record: %w", ErrTornRecord)
		}
		body := payload[sha256.Size:]
		if _, _, _, err := readRecord(body, false); err != nil {
			return 0, err
		}
		pc.mem[cacheKey(payload[:sha256.Size])] = body
		return n, nil
	}); err != nil {
		f.Close()
		return nil, err
	}
	return pc, nil
}

// Len returns the number of distinct cached outcomes.
func (pc *ProbeCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.mem)
}

// Close releases the log handle, surfacing any sticky append error.
// A nil receiver (no durable cache configured) is a no-op.
func (pc *ProbeCache) Close() error {
	if pc == nil {
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return pc.err
	}
	pc.closed = true
	cerr := pc.f.Close()
	if pc.err != nil {
		return pc.err
	}
	if cerr != nil {
		return fmt.Errorf("storage: close probe cache: %w", cerr)
	}
	return nil
}

func nsKey(namespace string, fp sqldb.Fingerprint) cacheKey {
	h := sha256.New()
	h.Write([]byte(namespace))
	h.Write([]byte{0})
	h.Write(fp[:])
	var key cacheKey
	h.Sum(key[:0])
	return key
}

func (pc *ProbeCache) get(key cacheKey) (*sqldb.Result, error, bool) {
	pc.mu.Lock()
	body, ok := pc.mem[key]
	pc.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	res, errKind, errMsg, err := readRecord(body, true)
	if err != nil {
		// Unreachable: open checked every loaded record and Put stores
		// only what encodeRecord built. Serve a miss, so the probe runs.
		return nil, nil, false
	}
	switch errKind {
	case errKindNoSuchTable:
		return res, &cachedErr{msg: errMsg, base: sqldb.ErrNoSuchTable}, true
	case errKindApp:
		return res, &cachedErr{msg: errMsg}, true
	default:
		return res, nil, true
	}
}

// cachedErr rehydrates a persisted application error with its exact
// message while keeping errors.Is classification (the scheduler and
// from-clause phase branch on sqldb.ErrNoSuchTable) working across a
// save/load cycle.
type cachedErr struct {
	msg  string
	base error
}

func (e *cachedErr) Error() string { return e.msg }
func (e *cachedErr) Unwrap() error { return e.base }

// put records one outcome. An outcome the record format cannot hold
// is not cached at all, and the cache stays writable.
func (pc *ProbeCache) put(key cacheKey, res *sqldb.Result, err error) {
	payload, ok := encodeRecord(key, res, err)
	if !ok {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed || pc.err != nil {
		return
	}
	if _, ok := pc.mem[key]; ok {
		return // idempotent: first writer wins, outcomes are deterministic
	}
	pc.mem[key] = payload[sha256.Size:]
	if werr := pc.append(payload); werr != nil {
		// Degrade to read-only: in-memory hits keep working, the loss
		// is durability of new entries. Surfaced at Close.
		pc.err = werr
	}
	pc.writes++
}

// append must be called with pc.mu held.
func (pc *ProbeCache) append(payload []byte) error {
	if err := writeFrame(pc.f, payload); err != nil {
		return err
	}
	if err := pc.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync probe cache: %w", err)
	}
	return nil
}

// encodeRecord builds the payload of one outcome. ok is false when
// the format cannot hold it: more than maxCacheU16 columns, a column
// name longer than maxCacheU16 bytes, a row wider than maxCacheU16
// values, or a payload over maxCachePayload.
func encodeRecord(key cacheKey, res *sqldb.Result, err error) (payload []byte, ok bool) {
	errKind, errMsg := byte(errKindNone), ""
	switch {
	case err == nil:
	case errors.Is(err, sqldb.ErrNoSuchTable):
		errKind, errMsg = errKindNoSuchTable, err.Error()
	default:
		errKind, errMsg = errKindApp, err.Error()
	}
	payload = make([]byte, 0, 64)
	payload = append(payload, key[:]...)
	payload = append(payload, errKind)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(errMsg)))
	payload = append(payload, errMsg...)
	if res == nil {
		payload = append(payload, 0)
		return payload, len(payload) <= maxCachePayload
	}
	if len(res.Columns) > maxCacheU16 {
		return nil, false
	}
	payload = append(payload, 1)
	if res.AggEmptyInput() {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(res.Columns)))
	for _, c := range res.Columns {
		if len(c) > maxCacheU16 {
			return nil, false
		}
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(c)))
		payload = append(payload, c...)
	}
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(res.Rows)))
	for _, row := range res.Rows {
		if len(row) > maxCacheU16 {
			return nil, false
		}
		payload = appendRow(payload, row)
		if len(payload) > maxCachePayload {
			return nil, false
		}
	}
	return payload, len(payload) <= maxCachePayload
}

// readRecord parses a record body, the payload after its key. With
// decode unset it only checks the structure and allocates nothing;
// with decode set it also returns the outcome, as values private to
// the caller. Every count is checked against the bytes left before
// anything is sized by it, so a corrupt record fails as torn.
func readRecord(body []byte, decode bool) (res *sqldb.Result, errKind byte, errMsg string, err error) {
	torn := func(what string) error {
		return fmt.Errorf("storage: short cache %s: %w", what, ErrTornRecord)
	}
	if len(body) < 1+4 {
		return nil, 0, "", torn("record")
	}
	errKind = body[0]
	msgLen := int(binary.LittleEndian.Uint32(body[1:]))
	off := 1 + 4
	if msgLen > len(body)-off-1 {
		return nil, 0, "", torn("error message")
	}
	if decode {
		errMsg = string(body[off : off+msgLen])
	}
	off += msgLen
	hasRes := body[off]
	off++
	if hasRes == 0 {
		if off != len(body) {
			return nil, 0, "", fmt.Errorf("storage: trailing cache bytes: %w", ErrTornRecord)
		}
		return nil, errKind, errMsg, nil
	}
	if off+1+2 > len(body) {
		return nil, 0, "", torn("result header")
	}
	aggEmpty := body[off] == 1
	ncols := int(binary.LittleEndian.Uint16(body[off+1:]))
	off += 1 + 2
	// Each column name takes at least its u16 length.
	if ncols > (len(body)-off)/2 {
		return nil, 0, "", torn("column count")
	}
	var cols []string
	if decode {
		cols = make([]string, 0, ncols)
	}
	for i := 0; i < ncols; i++ {
		if off+2 > len(body) {
			return nil, 0, "", torn("column")
		}
		n := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if n > len(body)-off {
			return nil, 0, "", torn("column name")
		}
		if decode {
			cols = append(cols, string(body[off:off+n]))
		}
		off += n
	}
	if off+4 > len(body) {
		return nil, 0, "", torn("row count")
	}
	nrows := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	// Each row takes at least its u16 width.
	if nrows > (len(body)-off)/2 {
		return nil, 0, "", torn("row count")
	}
	var rows []sqldb.Row
	if decode {
		rows = make([]sqldb.Row, nrows)
	}
	for i := 0; i < nrows; i++ {
		if decode {
			rows[i], off, err = decodeRowAt(body, off)
		} else {
			off, err = skipRowAt(body, off)
		}
		if err != nil {
			return nil, 0, "", err
		}
	}
	if off != len(body) {
		return nil, 0, "", fmt.Errorf("storage: trailing cache bytes: %w", ErrTornRecord)
	}
	if decode {
		res = sqldb.RestoreResult(cols, rows, aggEmpty)
	}
	return res, errKind, errMsg, nil
}

// NSCache is one namespace's view of a ProbeCache. It implements
// core.ProbeCache (structurally — core defines the interface, this
// package only matches it).
type NSCache struct {
	pc *ProbeCache
	ns string
}

// Namespace scopes the cache to one logical executable. Use
// AppNamespace for registry-built applications.
func (pc *ProbeCache) Namespace(ns string) *NSCache {
	return &NSCache{pc: pc, ns: ns}
}

// Get returns the cached outcome for fp in this namespace.
func (c *NSCache) Get(fp sqldb.Fingerprint) (*sqldb.Result, error, bool) {
	return c.pc.get(nsKey(c.ns, fp))
}

// Put records the outcome for fp. First write wins; re-puts of the
// same key are ignored (outcomes are deterministic by construction).
func (c *NSCache) Put(fp sqldb.Fingerprint, res *sqldb.Result, err error) {
	c.pc.put(nsKey(c.ns, fp), res, err)
}

// AppNamespace is the canonical namespace for a registry application
// built at a given seed: CLI and daemon submissions of the same
// (app, seed) pair share probe results.
func AppNamespace(app string, seed int64) string {
	return "app/" + app + "#seed=" + strconv.FormatInt(seed, 10)
}
