package gridindex

// CheckWatermarks exposes the watermark invariant to the external tests,
// which drive the index through a whole platform.
var CheckWatermarks = watermarkErr
