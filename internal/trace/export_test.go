package trace

// Exported for the external tests of package trace_test, which capture
// real workloads and so cannot live inside package trace.
const ChunkLen = chunkLen

var FixedRecordBytes = fixedRecordBytes
