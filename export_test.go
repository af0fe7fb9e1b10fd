package repro

// StudyOf exposes an engine's study to the external tests, which
// inject faults into it through the daemon's own engine.
func StudyOf(e *Engine) *Study { return e.st }
