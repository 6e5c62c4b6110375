package obs

import (
	"fmt"
	"io"
	"log/slog"
)

// ParseLogLevel parses a -log-level flag value into a slog.Level:
// "debug", "info" (also ""), "warn", or "error".
func ParseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
	}
}

// NewLogHandler builds the slog.Handler behind the -log-format and
// -log-level flags shared by the server and CLI tools: format is "text"
// (human-oriented key=value lines) or "json" (one JSON object per line,
// for log shippers); level is a minimum level as ParseLogLevel reads it.
// Debug-level records — per-request trace lines, span-level detail — are
// dropped unless the level says otherwise, so enabling them is a flag
// flip, not a code change. The server wraps it in trace.LogHandler so
// request-scoped records gain a trace_id.
func NewLogHandler(format, level string, w io.Writer) (slog.Handler, error) {
	lvl, err := ParseLogLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "", "text":
		return slog.NewTextHandler(w, opts), nil
	case "json":
		return slog.NewJSONHandler(w, opts), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
}
