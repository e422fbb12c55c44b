"""RPR002 vs CTR301: a manually entered span closed in try/finally."""


def run(tracer, kernel):
    span = tracer.span("ksp").__enter__()
    try:
        return kernel.run()
    finally:
        span.__exit__(None, None, None)
