package wrapper

// CheckWidths exposes the differential check against the reference
// implementation to external test packages (internal tests would cycle
// through internal/bench otherwise).
var CheckWidths = checkWidths
