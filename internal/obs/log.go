package obs

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
)

// Level orders log severities.
type Level int

// Log severities, least to most severe. A logger drops records below
// its minimum level.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "level(" + strconv.Itoa(int(l)) + ")"
}

// Logger is a leveled key=value line logger:
//
//	ts=2026-08-08T12:00:00Z level=info msg="campaign accepted" req=r-4f1d22ab09c3e857 runs=936
//
// One line per record, fields in call order after the fixed ts/level/msg
// prefix, values quoted only when they need it — grep-friendly and
// stable enough to assert against in tests. The nil *Logger is a valid
// no-op sink (every method returns immediately), mirroring the package's
// nil-receiver convention, so "logging disabled" needs no conditionals
// at call sites. A Logger is safe for concurrent use; a WithClock copy
// shares the parent's writer and lock.
type Logger struct {
	mu  *sync.Mutex
	w   io.Writer
	min Level
	now func() time.Time
}

// NewLogger returns a logger writing records at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{mu: new(sync.Mutex), w: w, min: min, now: time.Now}
}

// WithClock returns a copy of the logger stamping records with now
// instead of time.Now — deterministic timestamps for tests. Nil-safe.
func (l *Logger) WithClock(now func() time.Time) *Logger {
	if l == nil {
		return nil
	}
	cp := *l
	cp.now = now
	return &cp
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, keyvals ...any) { l.log(LevelDebug, msg, keyvals) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, keyvals ...any) { l.log(LevelInfo, msg, keyvals) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, keyvals ...any) { l.log(LevelWarn, msg, keyvals) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, keyvals ...any) { l.log(LevelError, msg, keyvals) }

func (l *Logger) log(lv Level, msg string, keyvals []any) {
	if l == nil || lv < l.min {
		return
	}
	var b bytes.Buffer
	b.WriteString("ts=")
	b.WriteString(l.now().UTC().Format(time.RFC3339))
	b.WriteString(" level=")
	b.WriteString(lv.String())
	b.WriteString(" msg=")
	b.WriteString(quote(msg))
	appendFields(&b, keyvals)
	b.WriteByte('\n')
	l.mu.Lock()
	l.w.Write(b.Bytes())
	l.mu.Unlock()
}

// appendFields renders keyvals as " k=v" pairs. A trailing key without
// a value logs as k=(missing) rather than being dropped, so a miscalled
// site is visible in its own output.
func appendFields(b *bytes.Buffer, keyvals []any) {
	for i := 0; i < len(keyvals); i += 2 {
		b.WriteByte(' ')
		b.WriteString(fieldString(keyvals[i]))
		b.WriteByte('=')
		if i+1 < len(keyvals) {
			b.WriteString(quote(fieldString(keyvals[i+1])))
		} else {
			b.WriteString("(missing)")
		}
	}
}

// fieldString renders one field key or value.
func fieldString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case error:
		return x.Error()
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case time.Duration:
		return x.String()
	default:
		return strings.ReplaceAll(fmt.Sprint(x), "\n", " ")
	}
}

// quote wraps s in double quotes when it is empty or contains '=', '"',
// whitespace or a control character — the cases where an unquoted value
// would break the key=value grammar or the one-line-per-record contract
// (strconv.Quote escapes a newline or carriage return).
func quote(s string) string {
	if s == "" || strings.ContainsFunc(s, func(r rune) bool {
		return r == '=' || r == '"' || unicode.IsSpace(r) || unicode.IsControl(r)
	}) {
		return strconv.Quote(s)
	}
	return s
}
