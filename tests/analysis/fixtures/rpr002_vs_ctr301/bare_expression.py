"""RPR002 vs CTR301: a span entered as a bare expression, never exited."""


def run(tracer, kernel):
    tracer.span("ksp").__enter__()
    return kernel.run()
