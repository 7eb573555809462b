// Package jsonl holds the format-agnostic mechanics of a crash-safe
// line log, shared by campaign shards, the run journal and run traces:
// splitting bytes into lines with byte offsets, classifying an
// unterminated final line as the torn tail of an append a crash cut
// short, and an append-only file that writes one full line per write(2)
// and seals a torn tail before the first new line lands. Schema tags,
// validation and which unparseable lines are forgiven stay with each
// format's own reader.
package jsonl

import (
	"bytes"
	"io"
	"os"
)

// Line is one line of a scanned log: its bytes without the newline,
// the byte offset of its first byte, and whether a newline ended it —
// false only for a final line whose append never completed.
type Line struct {
	Bytes      []byte
	Offset     int64
	Terminated bool
}

// Blank reports whether the line holds nothing but whitespace.
func (l Line) Blank() bool { return len(bytes.TrimSpace(l.Bytes)) == 0 }

// Scan splits data at newlines. Every byte belongs to exactly one line
// or terminator, so offsets strictly increase and only the last line
// can be unterminated. The lines alias data.
func Scan(data []byte) []Line {
	lines := make([]Line, 0, bytes.Count(data, []byte{'\n'})+1)
	var offset int64
	for len(data) > 0 {
		l, rest := Line{Bytes: data, Offset: offset}, []byte(nil)
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			l.Bytes, l.Terminated, rest = data[:nl], true, data[nl+1:]
		}
		offset += int64(len(data) - len(rest))
		data = rest
		lines = append(lines, l)
	}
	return lines
}

// File is an append-only line log on disk. The caller serializes calls.
type File struct {
	f     *os.File
	fsync bool
	// torn is set while the content Open found ends mid-line; the first
	// Append clears it by leading with the sealing newline.
	torn bool
}

// Open opens path (creating it if missing) for appending; keep false
// truncates it first. Kept content that ends mid-line — the append a
// crash cut short — is sealed: sealed is the offset at which a newline
// closes the fragment (-1 when the content ends cleanly), written in
// the same write(2) as the first Append, so a format's marker line
// lands atomically with the seal and the next line is never glued onto
// the fragment. A tail that cannot be inspected fails the open rather
// than being assumed clean. fsync makes every Append a durability
// barrier.
func Open(path string, keep, fsync bool) (f *File, sealed int64, err error) {
	flags := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if !keep {
		flags |= os.O_TRUNC
	}
	osf, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, -1, err
	}
	st, err := osf.Stat()
	var torn bool
	if err == nil {
		torn, err = endsMidLine(osf, st.Size())
	}
	if err != nil {
		osf.Close()
		return nil, -1, err
	}
	sealed = -1
	if torn {
		sealed = st.Size()
	}
	return &File{f: osf, fsync: fsync, torn: torn}, sealed, nil
}

// endsMidLine reports whether size bytes of r end without a newline.
func endsMidLine(r io.ReaderAt, size int64) (bool, error) {
	if size == 0 {
		return false, nil
	}
	var tail [1]byte
	_, err := r.ReadAt(tail[:], size-1)
	return err == nil && tail[0] != '\n', err
}

// Append writes line — one full line, newline included — with a single
// write(2), so a crash leaves at worst one torn trailing line.
func (f *File) Append(line []byte) error {
	if f.torn {
		line = append([]byte{'\n'}, line...)
	}
	if _, err := f.f.Write(line); err != nil {
		return err
	}
	f.torn = false
	if f.fsync {
		return f.f.Sync()
	}
	return nil
}

// Sync forces the platform's durability barrier.
func (f *File) Sync() error { return f.f.Sync() }

// Truncate empties the log; later appends start at offset zero.
func (f *File) Truncate() error {
	f.torn = false
	return f.f.Truncate(0)
}

// Close releases the file.
func (f *File) Close() error { return f.f.Close() }
