"""RPR002 vs CTR301: the span handle is returned to the caller."""


def open_stage(tracer):
    span = tracer.span("ksp")
    return span
