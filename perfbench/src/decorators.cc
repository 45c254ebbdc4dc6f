#include "decorators.h"

#include <utility>

namespace perfbench {

const char* RouteSpanName(const least::HttpRequest& request) {
  const std::string& path = request.path;
  if (request.method == "POST" && path == "/jobs") return "service.submit";
  if (path == "/changes") return "service.changes";
  if (path.rfind("/models/", 0) == 0) return "service.model";
  if (path.rfind("/data/", 0) == 0) {
    if (request.QueryParam("manifest") == "1") return "origin.manifest";
    return request.Header("range").empty() ? "origin.whole" : "origin.range";
  }
  return "service.other";
}

least::HttpHandler TimedHandler(least::HttpHandler inner, Tracer* tracer) {
  return [inner = std::move(inner),
          tracer](const least::HttpRequest& request) {
    Span span(tracer, RouteSpanName(request));
    return inner(request);
  };
}

}  // namespace perfbench
