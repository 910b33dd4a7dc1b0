package storage

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tailFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// frameNext is the binary-framing callback the probe cache uses.
func frameNext(r *bufio.Reader) (int64, error) {
	_, n, err := readFrame(r, maxCachePayload)
	return n, err
}

// jsonlNext is the newline-framing callback the service job store
// uses: a final line without its terminator is a torn record.
func jsonlNext(r *bufio.Reader) (int64, error) {
	line, err := r.ReadString('\n')
	if err == io.EOF {
		if line != "" {
			return 0, ErrTornRecord
		}
		return 0, io.EOF
	}
	if err != nil {
		return 0, err
	}
	return int64(len(line)), nil
}

func fileSize(t *testing.T, f *os.File) int64 {
	t.Helper()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestRecoverTailCleanLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, p := range []string{"one", "two", "three"} {
		if err := writeFrame(f, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	good, torn, err := RecoverTail(f, frameNext)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("torn = %d on a clean log", torn)
	}
	if want := fileSize(t, f); good != want {
		t.Fatalf("good = %d, want %d", good, want)
	}
}

// The regression the shared helper exists for: a crash mid-append
// leaves a partial final record; recovery must keep every intact
// record and truncate exactly the torn suffix — for both framings.
func TestRecoverTailTornMidRecord(t *testing.T) {
	t.Run("binary-frames", func(t *testing.T) {
		f := tailFile(t, nil)
		writeFrame(f, []byte("intact-1"))
		writeFrame(f, []byte("intact-2"))
		intact := fileSize(t, f)
		// Torn suffixes: partial header, header+partial payload, full
		// frame with corrupt CRC.
		for _, suffix := range [][]byte{
			{9, 0},
			{9, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 'p', 'a', 'r'},
			{3, 0, 0, 0, 0, 0, 0, 0, 'x', 'y', 'z'},
		} {
			if err := f.Truncate(intact); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(suffix, intact); err != nil {
				t.Fatal(err)
			}
			good, torn, err := RecoverTail(f, frameNext)
			if err != nil {
				t.Fatalf("suffix %v: %v", suffix, err)
			}
			if good != intact || torn != int64(len(suffix)) {
				t.Fatalf("suffix %v: good=%d torn=%d, want good=%d torn=%d",
					suffix, good, torn, intact, len(suffix))
			}
			if fileSize(t, f) != intact {
				t.Fatalf("suffix %v: torn tail not truncated", suffix)
			}
			// The recovered log must now be clean.
			if _, torn, err := RecoverTail(f, frameNext); err != nil || torn != 0 {
				t.Fatalf("suffix %v: rescan: torn=%d err=%v", suffix, torn, err)
			}
		}
	})
	t.Run("jsonl", func(t *testing.T) {
		f := tailFile(t, []byte("{\"id\":1}\n{\"id\":2}\n{\"id\":3"))
		good, torn, err := RecoverTail(f, jsonlNext)
		if err != nil {
			t.Fatal(err)
		}
		if good != 18 || torn != 7 {
			t.Fatalf("good=%d torn=%d, want 18/7", good, torn)
		}
		raw, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != "{\"id\":1}\n{\"id\":2}\n" {
			t.Fatalf("recovered file = %q", raw)
		}
	})
}

func TestRecoverTailAbortsOnOtherErrors(t *testing.T) {
	f := tailFile(t, []byte("data-that-must-survive"))
	boom := errors.New("schema mismatch")
	_, _, err := RecoverTail(f, func(r *bufio.Reader) (int64, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "recover tail") {
		t.Fatalf("err not wrapped with context: %v", err)
	}
	if fileSize(t, f) != 22 {
		t.Fatal("RecoverTail truncated on a non-torn error")
	}
}

func TestRecoverTailRefusesOverReportedSizes(t *testing.T) {
	f := tailFile(t, []byte("abc"))
	_, _, err := RecoverTail(f, func(r *bufio.Reader) (int64, error) {
		if _, err := r.ReadByte(); err != nil {
			return 0, io.EOF
		}
		return 1000, nil // claims far more than the file holds
	})
	if err == nil {
		t.Fatal("over-reported sizes accepted")
	}
	if fileSize(t, f) != 3 {
		t.Fatal("file truncated despite size inconsistency")
	}
}
