package storage

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
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
type ProbeCache struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	mem    map[cacheKey]*cacheValue
	writes int64
	closed bool
	err    error // sticky append error: cache degrades to read-only
}

type cacheKey [sha256.Size]byte

type cacheValue struct {
	errKind byte
	errMsg  string
	res     *sqldb.Result // nil when absent
}

const (
	errKindNone        = 0
	errKindNoSuchTable = 1
	errKindApp         = 2
)

// maxCachePayload bounds one record: keep it generous (a full result
// over a large instance) but finite so a corrupt length field cannot
// OOM recovery.
const maxCachePayload = 1 << 28 // 256 MiB

// OpenProbeCache opens (creating if needed) the cache log at path,
// truncating any torn tail and loading all intact records.
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
	pc := &ProbeCache{f: f, path: path, mem: make(map[cacheKey]*cacheValue)}
	if _, _, err := RecoverTail(f, func(r *bufio.Reader) (int64, error) {
		payload, n, err := readFrame(r, maxCachePayload)
		if err != nil {
			return 0, err
		}
		key, val, err := decodeCacheRecord(payload)
		if err != nil {
			return 0, err
		}
		pc.mem[key] = val
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
	val, ok := pc.mem[key]
	pc.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	var res *sqldb.Result
	if val.res != nil {
		res = val.res.Clone()
	}
	switch val.errKind {
	case errKindNoSuchTable:
		return res, &cachedErr{msg: val.errMsg, base: sqldb.ErrNoSuchTable}, true
	case errKindApp:
		return res, &cachedErr{msg: val.errMsg}, true
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

func (pc *ProbeCache) put(key cacheKey, res *sqldb.Result, err error) {
	val := &cacheValue{}
	switch {
	case err == nil:
		val.errKind = errKindNone
	case errors.Is(err, sqldb.ErrNoSuchTable):
		val.errKind = errKindNoSuchTable
		val.errMsg = err.Error()
	default:
		val.errKind = errKindApp
		val.errMsg = err.Error()
	}
	if res != nil {
		val.res = res.Clone()
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed || pc.err != nil {
		return
	}
	if _, ok := pc.mem[key]; ok {
		return // idempotent: first writer wins, outcomes are deterministic
	}
	pc.mem[key] = val
	if werr := pc.append(key, val); werr != nil {
		// Degrade to read-only: in-memory hits keep working, the loss
		// is durability of new entries. Surfaced at Close.
		pc.err = werr
	}
	pc.writes++
}

// append must be called with pc.mu held.
func (pc *ProbeCache) append(key cacheKey, val *cacheValue) error {
	payload := make([]byte, 0, 64)
	payload = append(payload, key[:]...)
	payload = append(payload, val.errKind)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(val.errMsg)))
	payload = append(payload, val.errMsg...)
	if val.res == nil {
		payload = append(payload, 0)
	} else {
		payload = append(payload, 1)
		if val.res.AggEmptyInput() {
			payload = append(payload, 1)
		} else {
			payload = append(payload, 0)
		}
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(val.res.Columns)))
		for _, c := range val.res.Columns {
			payload = binary.LittleEndian.AppendUint16(payload, uint16(len(c)))
			payload = append(payload, c...)
		}
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(val.res.Rows)))
		for _, row := range val.res.Rows {
			payload = appendRow(payload, row)
		}
	}
	if len(payload) > maxCachePayload {
		return fmt.Errorf("storage: probe-cache record too large (%d bytes)", len(payload))
	}
	if err := writeFrame(pc.f, payload); err != nil {
		return err
	}
	if err := pc.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync probe cache: %w", err)
	}
	return nil
}

func decodeCacheRecord(payload []byte) (cacheKey, *cacheValue, error) {
	var key cacheKey
	if len(payload) < sha256.Size+1+4 {
		return key, nil, fmt.Errorf("storage: short cache record: %w", ErrTornRecord)
	}
	copy(key[:], payload)
	off := sha256.Size
	val := &cacheValue{errKind: payload[off]}
	off++
	msgLen := int(binary.LittleEndian.Uint32(payload[off:]))
	off += 4
	if off+msgLen+1 > len(payload) {
		return key, nil, fmt.Errorf("storage: short cache error message: %w", ErrTornRecord)
	}
	val.errMsg = string(payload[off : off+msgLen])
	off += msgLen
	hasRes := payload[off]
	off++
	if hasRes == 0 {
		if off != len(payload) {
			return key, nil, fmt.Errorf("storage: trailing cache bytes: %w", ErrTornRecord)
		}
		return key, val, nil
	}
	if off+1+2 > len(payload) {
		return key, nil, fmt.Errorf("storage: short cache result header: %w", ErrTornRecord)
	}
	aggEmpty := payload[off] == 1
	off++
	ncols := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	cols := make([]string, 0, ncols)
	for i := 0; i < ncols; i++ {
		if off+2 > len(payload) {
			return key, nil, fmt.Errorf("storage: short cache column: %w", ErrTornRecord)
		}
		n := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if off+n > len(payload) {
			return key, nil, fmt.Errorf("storage: short cache column name: %w", ErrTornRecord)
		}
		cols = append(cols, string(payload[off:off+n]))
		off += n
	}
	if off+4 > len(payload) {
		return key, nil, fmt.Errorf("storage: short cache row count: %w", ErrTornRecord)
	}
	nrows := int(binary.LittleEndian.Uint32(payload[off:]))
	off += 4
	rows := make([]sqldb.Row, 0, nrows)
	for i := 0; i < nrows; i++ {
		row, next, err := decodeRowAt(payload, off)
		if err != nil {
			return key, nil, err
		}
		rows = append(rows, row)
		off = next
	}
	if off != len(payload) {
		return key, nil, fmt.Errorf("storage: trailing cache bytes: %w", ErrTornRecord)
	}
	val.res = sqldb.RestoreResult(cols, rows, aggEmpty)
	return key, val, nil
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
