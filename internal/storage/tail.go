package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// RecoverTail scans an append-only file from the start and truncates
// any torn final record left behind by a crash mid-append.
//
// next consumes exactly one record from the reader and returns the
// number of encoded bytes it occupied. It reports io.EOF for a clean
// end of file and ErrTornRecord (or io.ErrUnexpectedEOF) when the
// bytes at the current position are a partial or corrupt record — the
// residue of an interrupted write. Any other error aborts recovery
// and is returned wrapped.
//
// On return the file is positioned at the end of the last intact
// record, the torn suffix (if any) has been truncated away, and torn
// reports how many bytes were dropped. The helper is shared by the
// service tier's JSONL job store and this package's binary
// probe-cache log; both formats guarantee that records are appended
// atomically *in the log's framing* (length/CRC or newline), so a
// prefix of intact records is always a consistent state.
func RecoverTail(f *os.File, next func(r *bufio.Reader) (int64, error)) (good, torn int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("storage: recover tail: %w", err)
	}
	r := bufio.NewReader(f)
	tornTail := false
	for {
		n, err := next(r)
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrTornRecord) || errors.Is(err, io.ErrUnexpectedEOF) {
			tornTail = true
			break
		}
		if err != nil {
			return good, 0, fmt.Errorf("storage: recover tail: %w", err)
		}
		good += n
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return good, 0, fmt.Errorf("storage: recover tail: %w", err)
	}
	torn = size - good
	if torn < 0 {
		// next over-reported record sizes; refuse to truncate valid data.
		return good, 0, fmt.Errorf("storage: recover tail: record sizes exceed file size (%d > %d)", good, size)
	}
	if torn > 0 {
		if err := f.Truncate(good); err != nil {
			return good, torn, fmt.Errorf("storage: recover tail: truncate: %w", err)
		}
	} else if !tornTail {
		torn = 0
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return good, torn, fmt.Errorf("storage: recover tail: %w", err)
	}
	return good, torn, nil
}

// writeFrame appends one binary frame to f: [u32 payload length]
// [u32 CRC32-IEEE(payload)][payload], little-endian. A crash inside
// the append leaves a prefix that readFrame reports as ErrTornRecord,
// which RecoverTail then truncates.
func writeFrame(f *os.File, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("storage: append frame: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		return fmt.Errorf("storage: append frame: %w", err)
	}
	return nil
}

// readFrame consumes one frame, validating length bound and CRC.
// io.EOF at a frame boundary is a clean end; anything else partial or
// invalid is ErrTornRecord.
func readFrame(r *bufio.Reader, maxLen uint32) ([]byte, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("storage: frame header: %w", ErrTornRecord)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxLen {
		return nil, 0, fmt.Errorf("storage: frame claims %d bytes: %w", n, ErrTornRecord)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("storage: frame payload: %w", ErrTornRecord)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, fmt.Errorf("storage: frame checksum: %w", ErrTornRecord)
	}
	return payload, int64(8 + len(payload)), nil
}
