package obs

import (
	"io"
	"log/slog"
	"strings"
	"time"
)

// NewLogger returns a log/slog logger writing records at or above min
// to w as leveled key=value lines:
//
//	ts=2026-08-08T12:00:00Z level=info msg="campaign accepted" req=r-4f1d22ab09c3e857 runs=936
//
// It is slog's TextHandler with two keys rewritten: the time is "ts"
// (RFC 3339, UTC, whole seconds) and the level is lowercase. One line
// per record, fields in call order after the fixed ts/level/msg prefix,
// values quoted only when they need it — grep-friendly and stable
// enough to assert against in tests.
func NewLogger(w io.Writer, min slog.Level) *slog.Logger { return newLogger(w, min, nil) }

// newLogger is NewLogger stamping every record with now() instead of
// the record's own time when now is non-nil — deterministic timestamps
// for tests.
func newLogger(w io.Writer, min slog.Level, now func() time.Time) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: min,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) > 0 {
				return a
			}
			switch a.Key {
			case slog.TimeKey:
				if a.Value.Kind() == slog.KindTime {
					t := a.Value.Time()
					if now != nil {
						t = now()
					}
					return slog.String("ts", t.UTC().Format(time.RFC3339))
				}
			case slog.LevelKey:
				if lv, ok := a.Value.Any().(slog.Level); ok {
					return slog.String(slog.LevelKey, strings.ToLower(lv.String()))
				}
			}
			return a
		},
	}))
}
